"""Benchmark of u2factor's factor and verify, end to end or layer by layer.

    python3 perfbench/run.py --workload smallq-u2split --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

One process runs one workload: a closed loop with one client, on one
thread.  The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics, from a
traced re-run of the inputs an untraced phase just timed.  See
README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from time import perf_counter

from refclock import REF_SECONDS, Stopwatch
from tracing import Tracer
from workloads import WORKLOADS, Input, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
OUT = HERE / "out"

SETUP_REPEATS = 3

END_TO_END = (
    ("factor_ms_p50", "ms"), ("factor_ms_p90", "ms"),
    ("verify_ms_p50", "ms"), ("verify_ms_p90", "ms"),
    ("certs_per_s", "1/s"), ("setup_s", "s"),
    ("pairs_mean", "count"), ("cert_bytes_mean", "B"),
    ("peak_rss_mib", "MiB"),
)

ROUTE_FAMILIES = ("cor3_4", "cor3_6", "lemma4_6", "prop3_10", "prop3_11",
                  "prop3_12", "prop4_1", "prop4_3", "prop4_5", "prop4_8",
                  "prop5_2", "prop5_3", "sourour", "thm3_2", "thm3_8")

CELLS = tuple(dict.fromkeys(f"{f.label}-n{n}" for w in WORKLOADS.values()
                            for f, n in w.cells))

# Per timed input unless the unit says otherwise.
PER_LAYER = (
    ("field.sqrt.calls", "count"), ("field.sqrt.self_ms", "ms"),
    ("field.squares.self_ms", "ms"),
    ("field.square_class_pairing.self_ms", "ms"),
    ("field.sum_of_two_nonzero_squares.self_ms", "ms"),
    ("field.parse.self_ms", "ms"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_ms", "ms"),
    ("linalg.matmul.ns_per_elem_op", "ns"),
    ("linalg.matmul.under_factor.self_ms", "ms"),
    ("linalg.matmul.under_verify.self_ms", "ms"),
    ("linalg.inverse.calls", "count"), ("linalg.inverse.self_ms", "ms"),
    ("linalg.det.self_ms", "ms"),
    ("linalg.charpoly.calls", "count"), ("linalg.charpoly.self_ms", "ms"),
    ("linalg.kernel_basis.self_ms", "ms"),
    ("linalg.unipotent_jordan.self_ms", "ms"),
    ("linalg.similarity_to_diagonal.self_ms", "ms"),
    ("sourour.calls", "count"), ("sourour.self_ms", "ms"),
    ("sourour.backtracks", "count"),
    ("unipotent.is_u2.calls", "count"), ("unipotent.is_u2.self_ms", "ms"),
    ("unipotent.is_u2.under_factor.self_ms", "ms"),
    ("unipotent.is_u2.under_verify.self_ms", "ms"),
    ("unipotent.transport.self_ms", "ms"), ("unipotent.concat.self_ms", "ms"),
    ("unipotent.verify.self_ms", "ms"), ("unipotent.json.self_ms", "ms"),
    ("factor_sl2.self_ms", "ms"),
    ("factor_sln.jn1_factor.calls", "count"),
    ("factor_sln.jn1_factor.self_ms", "ms"),
    ("factor_sln.scalar.self_ms", "ms"), ("factor_sln.dispatch.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
) + tuple((f"route.{r}.count", "count") for r in ROUTE_FAMILIES + ("other",)) + (
    ("pairs.max", "count"),
    ("q.entry_bits_max", "bit"), ("q.entry_bits_mean", "bit"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
    ("refclock.ref_ms", "ms"),
) + tuple((f"cell.{c}.factor_ms_p50", "ms") for c in CELLS)


def import_library():
    """u2factor and its CLI from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("u2factor")
        cli = importlib.import_module("u2factor.cli")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import u2factor from {SRC}: {exc}")
    if Path(api.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported u2factor from {api.__file__}, not {SRC}")
    return api, cli


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import " + module + "; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


@dataclass
class Outcome:
    input: Input
    factor_s: float = None
    verify_s: float = None
    cert: str = None
    pairs: int = None
    why: str = ""  # empty when the input passed the correctness gate
    factor_scale: float = 1.0  # seconds -> reference seconds, see refclock.py
    verify_scale: float = 1.0
    wall_s: float = 0.0  # the whole of process(), checks included


class Bench:
    """Runs one workload's inputs through the library or the CLI."""

    def __init__(self, api, cli, workload: Workload):
        self.api, self.cli, self.w = api, cli, workload
        self.fields = {}
        self.bounds = {}
        self.tracer = None
        self.watch = Stopwatch()

    def field(self, spec):
        if spec not in self.fields:
            self.fields[spec] = self.api.parse_field_spec(spec)
        return self.fields[spec]

    def matrix(self, inp: Input):
        F = self.field(inp.field.spec)
        return self.api.Matrix(F, [[F.element(inp.field.value(a)) for a in r]
                                   for r in inp.rows])

    def bound(self, inp: Input):
        key = (inp.field.spec, inp.n)
        if key not in self.bounds:
            self.bounds[key] = self.api.promised_max_pairs(
                self.field(inp.field.spec), inp.n)
        return self.bounds[key]

    def timed(self, request, fn, *args):
        """(fn(*args), wall seconds, scale to reference seconds); the only
        code that is timed."""
        if self.tracer:
            self.tracer.request = request
        try:
            return self.watch.time(fn, *args)
        finally:
            if self.tracer:
                self.tracer.request = None

    def setup(self, warm, repeats):
        """Set-up time in reference and in raw seconds: the median time to
        import in a fresh interpreter (2 * repeats + 1 times, as it is
        cheap), plus (library workloads) the median over repeats of making
        new fields and running one warm-up input per cell, each input
        bracketed by the reference work on its own."""
        module = "u2factor.cli" if self.w.cli else "u2factor"
        imports = []
        for _ in range(2 * repeats + 1):
            seconds, _, scale = Stopwatch().time(import_seconds, module)
            imports.append((seconds * scale, seconds))
        warmups, failures = [], []
        for _ in range(repeats if warm else 0):
            self.fields, self.bounds = {}, {}
            outs = [self.process(inp) for inp in warm]
            failures = [o for o in outs if o.why]
            warmups.append((sum(o.wall_s * (o.factor_scale + o.verify_scale) / 2
                                for o in outs),
                            sum(o.wall_s for o in outs)))
        scaled, raw = (sum(statistics.median(x[i] for x in part) if part else 0.0
                           for part in (imports, warmups)) for i in (0, 1))
        return scaled, raw, failures

    def timed_pass(self, inputs, budget, limit=None, tamper=None):
        """Run inputs, each between two runs of the reference work, in whole
        rounds so that every cell is equally represented; stop at the
        round end nearest to `budget` seconds."""
        outcomes = []
        per_round = self.w.round_len
        start = perf_counter()
        for i, inp in enumerate(inputs):
            if i == limit:
                break
            if i and i % per_round == 0:
                elapsed = perf_counter() - start
                if elapsed * (1 + 0.5 * per_round / i) >= budget:
                    break
            outcomes.append(self.process(inp, tamper))
        return outcomes

    def process(self, inp: Input, tamper=None) -> Outcome:
        # A field's element tables are reference cycles, so without this
        # one input's garbage could be collected inside another's timing.
        gc.collect()
        self.watch = Stopwatch()
        out = Outcome(inp)
        t0 = perf_counter()
        try:
            (self._cli if self.w.cli else self._library)(inp, out, tamper)
        except Exception as exc:  # counted as failed; the run goes on
            out.why = out.why or f"{type(exc).__name__}: {exc}"
        out.wall_s = perf_counter() - t0
        return out

    def _library(self, inp, out, tamper):
        api = self.api
        A = self.matrix(inp)
        f, out.factor_s, out.factor_scale = self.timed(inp.index, api.factor, A)
        if tamper:
            f = api.factorization_from_json(json.dumps(
                tamper(json.loads(api.factorization_to_json(f)))))
        report, out.verify_s, out.verify_scale = self.timed(
            inp.index, api.verify, f)
        out.cert = api.factorization_to_json(f)
        out.pairs = f.pair_count()
        out.why = self._gate(inp, A, f, report.passed)

    def _cli(self, inp, out, tamper):
        OUT.mkdir(exist_ok=True)
        matrix_path, cert_path = OUT / "request.txt", OUT / "cert.json"
        matrix_path.write_text(inp.text, encoding="utf-8")
        cert_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code_f, out.factor_s, out.factor_scale = self.timed(
                inp.index, self.cli.main,
                ["factor", "--input", str(matrix_path), "--json", str(cert_path)])
            if tamper and code_f == 0:
                cert_path.write_text(json.dumps(tamper(json.loads(
                    cert_path.read_text(encoding="utf-8")))), encoding="utf-8")
            code_v, out.verify_s, out.verify_scale = self.timed(
                inp.index, self.cli.main, ["verify", "--cert", str(cert_path)])
        if code_f or code_v:
            tail = sink.getvalue().strip().splitlines()[-1:]
            out.why = f"exit codes factor={code_f} verify={code_v}: {tail}"
            return
        out.cert = cert_path.read_text(encoding="utf-8")
        f = self.api.factorization_from_json(out.cert)
        out.pairs = f.pair_count()
        out.why = self._gate(inp, self.matrix(inp), f, True)

    def _gate(self, inp, A, f, passed):
        """Checks made outside the timed calls, as plain ifs so that they
        still run under python -O."""
        if f.target != A:
            return "certificate target differs from the input"
        if not passed:
            return "verify() did not pass"
        if f.pair_count() > self.bound(inp):
            return f"{f.pair_count()} pairs > promised_max_pairs {self.bound(inp)}"
        return ""


# -- metrics ---------------------------------------------------------------

def p50(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def typical_times(runs, scaled=True):
    """Per input that completed at least once: (input, factor seconds,
    verify seconds), each the median over the runs that completed it, in
    reference seconds (or raw seconds when not scaled)."""
    out = []
    for outs in zip(*runs):
        done = [o for o in outs if o.verify_s is not None]
        if done:
            out.append((outs[0].input,
                        statistics.median(o.factor_s * (o.factor_scale if scaled else 1)
                                          for o in done),
                        statistics.median(o.verify_s * (o.verify_scale if scaled else 1)
                                          for o in done)))
    return out


def timings(runs, setup_s, scaled=True):
    times = typical_times(runs, scaled)
    passed = sum(1 for outs in zip(*runs) if not any(o.why for o in outs))
    f_ms = [f * 1e3 for _, f, _ in times]
    v_ms = [v * 1e3 for _, _, v in times]
    busy = sum(f + v for _, f, v in times)
    return {
        "factor_ms_p50": p50(f_ms), "factor_ms_p90": p90(f_ms),
        "verify_ms_p50": p50(v_ms), "verify_ms_p90": p90(v_ms),
        "certs_per_s": passed / busy if busy else 0.0,
        "setup_s": setup_s,
    }


def end_to_end(runs, setup_s):
    passed = [outs[0] for outs in zip(*runs) if not any(o.why for o in outs)]
    return timings(runs, setup_s) | {
        "pairs_mean": mean([o.pairs for o in passed]),
        "cert_bytes_mean": mean([len(o.cert.encode()) for o in passed]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reference_ms(runs):
    """The reference work's time around each timed call, in ms."""
    return [1e3 * REF_SECONDS / k for r in runs for o in r
            for k in (o.factor_scale, o.verify_scale)]


def route_family(tag):
    m = re.match(r"[a-z]+(?:[0-9.]*[0-9])?", tag)
    if tag.startswith("transport:") or not m:
        return None
    fam = m.group(0).replace(".", "_")
    return fam if fam in ROUTE_FAMILIES else "other"


def entry_bits(token):
    return max(abs(int(part)).bit_length() for part in token.split("/"))


def per_layer(tracer: Tracer, runs):
    """Per-layer metrics from runs = [untraced, untraced again, traced]."""
    traced = runs[2]
    summary = tracer.summary({o.input.index: (o.factor_scale + o.verify_scale) / 2
                              for o in traced})
    n = max(len(traced), 1)

    def get(name, key="self_ns"):
        return summary[name][key] if name in summary else 0

    def ms(name, key="self_ns"):
        return get(name, key) / 1e6 / n

    m = {}
    for name, unit in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            m[name] = get(base, "calls") / n
        elif name.endswith(".under_factor.self_ms"):
            m[name] = ms(name.split(".under_")[0], "factor_ns")
        elif name.endswith(".under_verify.self_ms"):
            m[name] = ms(name.split(".under_")[0], "verify_ns")
        elif name.endswith(".self_ms"):
            m[name] = ms(base)
    m["sourour.backtracks"] = get("sourour", "data") / n
    ops = get("linalg.matmul", "data")
    m["linalg.matmul.ns_per_elem_op"] = get("linalg.matmul") / ops if ops else 0.0

    certs = [json.loads(o.cert) for o in traced if o.cert]
    routes = Counter(fam for c in certs
                     for fam in {route_family(t) for t in c["route"]} - {None})
    for fam in ROUTE_FAMILIES + ("other",):
        m[f"route.{fam}.count"] = routes[fam] / n
    m["pairs.max"] = max((len(c["pairs"]) for c in certs), default=0)
    bits = [entry_bits(t) for c in certs if c["field"] == "Q"
            for mat in [c["target"]] + [p[k] for p in c["pairs"] for k in "xy"]
            for row in mat for t in row]
    m["q.entry_bits_max"] = max(bits, default=0)
    m["q.entry_bits_mean"] = mean(bits)

    pairs = [(a, b) for a, b in zip(runs[1], traced)
             if a.verify_s is not None and b.verify_s is not None]
    wall_a = sum(a.factor_s * a.factor_scale + a.verify_s * a.verify_scale
                 for a, _ in pairs)
    wall_b = sum(b.factor_s * b.factor_scale + b.verify_s * b.verify_scale
                 for _, b in pairs)
    m["trace.overhead_ratio"] = wall_b / wall_a if wall_a else 0.0
    covered = sum(s for s, _ in tracer.self_times()) / 1e9
    wall = sum(o.factor_s + o.verify_s for o in traced if o.verify_s is not None)
    m["trace.coverage"] = covered / wall if wall else 0.0
    times = typical_times(runs[:2])
    for cell in CELLS:
        m[f"cell.{cell}.factor_ms_p50"] = p50(
            [f * 1e3 for inp, f, _ in times if inp.cell == cell])
    m["refclock.ref_ms"] = p50(reference_ms(runs))
    return {name: m[name] for name, _ in PER_LAYER}, summary


# -- one run -----------------------------------------------------------------

def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def run(api, cli, w: Workload, seed, seconds, trace, limit=None,
        setup_repeats=SETUP_REPEATS, log=print):
    stream = w.inputs(seed)
    first = list(islice(stream, w.round_len))  # made before set-up starts
    warm = [] if w.cli else w.warmup_inputs(seed)
    bench = Bench(api, cli, w)
    setup_s, setup_raw, warm_failed = bench.setup(warm, setup_repeats)
    inputs = chain(first, stream)
    if trace:
        # Each traced run follows an untraced run of the same input, so the
        # overhead ratio compares times taken at the same machine speed.
        # The two re-runs take about twice as long as the first pass.
        runs = [bench.timed_pass(inputs, seconds / 3, limit), [], []]
        tracer = Tracer()
        for o in runs[0]:
            runs[1].append(bench.process(o.input))
            with tracer.installed():
                bench.tracer = tracer
                runs[2].append(bench.process(o.input))
                bench.tracer = None
        metrics, summary = per_layer(tracer, runs)
        units = dict(PER_LAYER)
        raw = {}
    else:
        runs = [bench.timed_pass(inputs, seconds, limit)]
        metrics = end_to_end(runs, setup_s)
        units = dict(END_TO_END)
        raw = timings(runs, setup_raw, scaled=False)

    failed = [o for r in runs for o in r if o.why]
    attempted = sum(map(len, runs))
    log(f"workload {w.name}  seed {seed}  seconds {seconds}  trace {trace}")
    log(f"attempted {attempted}  failed {len(failed)}  "
        f"failed_ratio {len(failed) / max(attempted, 1):.4f}")
    for o in warm_failed + failed:
        log(f"  FAILED input {o.input.index} ({o.input.cell}): {o.why}")
    head = runs[0][:len(first)]
    digests = {"inputs": digest(i.text for i in first),
               "certs": digest(o.cert or "<failed>\n" for o in head)
               if len(head) == len(first) else None}
    log(f"input_digest (first {len(first)} inputs) {digests['inputs']}")
    log(f"cert_digest  (first {len(first)} inputs) {digests['certs']}")
    log("  " + compare_digests(w.name, seed, digests))
    ref_ms = reference_ms(runs)
    log(f"reference work: median {p50(ref_ms):.3f} ms around {len(ref_ms)} "
        f"timed calls; times below are scaled to {1e3 * REF_SECONDS:.3f} ms")
    if trace:
        if tracer.missing:
            log(f"  not traced (gone from the library): {tracer.missing}")
        path = OUT / f"trace-{w.name}-seed{seed}.json.gz"
        OUT.mkdir(exist_ok=True)
        tracer.write(path)
        log(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        for key in ("self_ns", "total_ns"):
            top = sorted(summary.items(), key=lambda kv: -kv[1][key])[:8]
            log(f"largest {key[:-3]} times per input: " + ", ".join(
                f"{k} {v[key] / 1e6 / max(len(runs[2]), 1):.1f} ms"
                for k, v in top))
    samples = len(typical_times(runs[:2] if trace else runs))
    beyond = samples - math.ceil(0.9 * samples)
    log(f"timings: {samples} inputs" + (", each the mean of 2 untraced runs"
                                         if trace else "")
        + f"; {beyond} samples beyond p90")
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.4f})" if name in raw else ""
        log(f"  {name:44s} {value:14.4f} {units[name]}{note}")
    return {"correct": not failed and not warm_failed, "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def compare_digests(workload, seed, digests):
    try:
        base = json.loads((HERE / "baseline.json").read_text())
        stored = base["digests"][workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return "digests: no baseline for this seed"
    same = {k: stored.get(k) == v for k, v in digests.items()}
    return ("digests: " + ", ".join(
        f"{k} {'same as' if ok else 'CHANGED from'} baseline"
        for k, ok in same.items()) + " (reported, not gated)")


# -- self-check ----------------------------------------------------------------

def swap_first_pair(cert):
    cert["pairs"][0]["x"], cert["pairs"][0]["y"] = \
        cert["pairs"][0]["y"], cert["pairs"][0]["x"]
    return cert


def wrong_target(cert):
    cert["target"] = cert["target"][1:] + cert["target"][:1]
    return cert


def self_check():
    """Tiny runs of every workload in both modes through the same code,
    then tampered certificates, which must all count as failed."""
    api, cli = import_library()
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if sorted(m["name"] for m in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in WORKLOADS.values():
        for trace in (0, 1):
            res = run(api, cli, w, 0, 0, trace, limit=2, setup_repeats=1,
                      log=lambda *_: None)
            want = {n for n, _ in (PER_LAYER if trace else END_TO_END)}
            if not res["correct"] or res["failed"] or set(res["metrics"]) != want:
                problems.append(f"{w.name} trace {trace}: {res}")
        # In characteristic 2 a U2 commutator can be an involution, and then
        # swapping its X and Y leaves a valid certificate.
        odd = [i for i in islice(w.inputs(0), w.round_len) if i.field.p != 2][:2]
        for tamper in (swap_first_pair, wrong_target):
            bench = Bench(api, cli, w)
            if any(not bench.process(inp, tamper).why for inp in odd):
                problems.append(f"{w.name}: {tamper.__name__} was not caught")
        print(f"self-check {w.name}: done")
    for p in problems:
        print("PROBLEM", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    api, cli = import_library()
    result = run(api, cli, WORKLOADS[args.workload], args.seed, args.seconds,
                 args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
