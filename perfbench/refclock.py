"""Reference clock: scales measured times to a fixed machine speed.

On a shared virtual machine the clock speed a process gets changes by
up to 1.8x within seconds, and a slow spell can outlast a whole run.
A fixed piece of pure-Python work, shaped like the library's element
arithmetic (small objects, method calls, modular products), slows down
in proportion.  Each timed call is therefore bracketed by runs of that
work, and its time is reported as

    measured seconds * REF_SECONDS / (mean of the reference times
                                      just before and just after)

i.e. the time it would have taken at the speed where the reference
work takes REF_SECONDS.  Raw times are printed next to scaled ones.
"""

from __future__ import annotations

from time import perf_counter

# The reference work's time on a 2-vCPU Xeon virtual machine in its
# fast clock state; it only fixes the scale of the reported times.
REF_SECONDS = 0.001


class _Element:
    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def __mul__(self, other):
        if not isinstance(other, _Element):
            raise TypeError("expected _Element")
        return _Element(self.field, self.rep * other.rep % 1000003)


def reference_seconds() -> float:
    """Wall seconds the reference work takes now."""
    a, b = _Element(None, 3), _Element(None, 5)
    t0 = perf_counter()
    for _ in range(3000):
        a = a * b
    return perf_counter() - t0


def reference_now() -> float:
    """The reference work's time now: the faster of two runs."""
    return min(reference_seconds(), reference_seconds())


class Stopwatch:
    """Times calls with the reference work run just before and just after
    each; back-to-back calls share the run between them."""

    def __init__(self):
        self.ref = None

    def time(self, fn, *args):
        """(fn(*args), its wall seconds, the factor that turns those
        seconds into reference seconds)."""
        before = self.ref if self.ref is not None else reference_now()
        t0 = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - t0
        self.ref = reference_now()
        return result, seconds, 2 * REF_SECONDS / (before + self.ref)
