"""Survey commutator word lengths in small SL_2(F_q) and compare them
with the constructive dispatcher's pair counts.

Every pair count comes from ``factor``, which verifies its certificate.
The survey exits 1 when the dispatcher refuses an element the oracle
reaches, or returns fewer pairs than the true minimum; both checks are
plain ones, so they also run under ``python -O``.

Usage:
    python scripts/length_survey.py --qs 2 3 4 5 7 --out lengths.csv
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field


class SurveyFailed(Exception):
    pass


@dataclass
class SurveyConfig:
    qs: list = field(default_factory=lambda: [2, 3, 4, 5, 7])
    out: str = ""
    budget: int = 200_000


def survey(config: SurveyConfig):
    from u2factor.field import GF
    from u2factor import oracle
    from u2factor.factor_sl2 import OutsideDerivedSubgroup
    from u2factor.factor_sln import factor

    rows = []
    for q in config.qs:
        F = GF(q)
        table = oracle.enumerate_group(F, 2, budget=config.budget)
        lengths = oracle.bfs_lengths(table)
        hist = Counter(lengths)
        print(f"SL_2(GF({q})): order {len(table)}, "
              f"U2 count {len(table.u2_ids)}")
        for length in sorted(hist):
            label = "unreachable" if length == oracle.UNREACHABLE else length
            print(f"  length {label}: {hist[length]} elements")
        for eid, A in enumerate(table.elements):
            bfs = lengths[eid]
            try:
                pairs = factor(A).pair_count()
            except OutsideDerivedSubgroup:
                pairs = None
                if bfs != oracle.UNREACHABLE:
                    raise SurveyFailed(f"GF({q}) element {eid}: refused, "
                                       f"but its length is {bfs}")
            if pairs is not None and bfs > pairs:
                raise SurveyFailed(f"GF({q}) element {eid}: {pairs} pairs "
                                   f"beat the true minimum {bfs}")
            rows.append((q, eid,
                         ";".join(" ".join(r) for r in A.tokens()),
                         bfs, pairs))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", type=int, nargs="+", default=[2, 3, 4, 5, 7])
    parser.add_argument("--out", default="")
    parser.add_argument("--budget", type=int, default=200_000)
    args = parser.parse_args(argv)
    config = SurveyConfig(qs=args.qs, out=args.out, budget=args.budget)
    try:
        rows = survey(config)
    except SurveyFailed as exc:
        print(f"survey failed: {exc}", file=sys.stderr)
        return 1
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write("q,id,matrix,bfs_length,dispatcher_pairs\n")
            for q, eid, tokens, bfs, pairs in rows:
                shown = "inf" if bfs == -1 else bfs
                emitted = "" if pairs is None else pairs
                fh.write(f"{q},{eid},{tokens},{shown},{emitted}\n")
        print(f"wrote {len(rows)} rows to {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
