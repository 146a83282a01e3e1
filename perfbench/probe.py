"""Set-up probe and host-speed reference.

Run as a script, a fresh interpreter pays the program's start-up, prints the
monotonic clock, then times the reference unit over a short window and prints
its mean in ms. run.py times the start-up from just before the process starts.

The host is shared: its CPU runs about 1.6 times faster or slower as the load
of other tenants comes and goes, on scales from milliseconds to minutes, and
that swing would move every time the benchmark reports. So every reported
time is scaled to a reference speed: multiplied by ``REF_MS`` over the mean
time the reference unit took in the same run, interleaved with the work it
scales. The unit is fixed interpreter and small-array numpy work, the mix the
program spends its time in, and runs none of the program's code, so a change
to the program moves the scaled times and the host's swings largely do not.
"""

import time

# Reported times are those of a host on which one reference unit takes REF_MS.
# On the 2-vCPU VM this was tuned on, the unit took 0.13-0.15 ms in the
# host's fast moments and 0.21-0.23 ms in its slow ones.
REF_MS = 0.2
_REF_SIZE = 96  # the array length of a power solve's quadrature nodes


def reference_unit_ns() -> int:
    """Time one reference unit, in ns."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, _REF_SIZE)
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(2000):
        acc += i * 0.5
    for _ in range(20):
        acc += float(np.exp(x).sum())
    return time.perf_counter_ns() - t0


def reference_mean_ms(window_s: float) -> float:
    """Mean time of the reference unit, in ms, over units run for ``window_s``."""
    samples = []
    end = time.perf_counter() + window_s
    while time.perf_counter() < end:
        samples.append(reference_unit_ns())
    return sum(samples) / len(samples) / 1e6


def set_up():
    """Import the CLI and build the quadrature rules it uses (orders 64-512)."""
    import periodic_portfolio.cli as cli
    from periodic_portfolio.quadrature import MAX_ORDER, make_rule

    order = 64
    while order <= MAX_ORDER:
        make_rule(order)
        order *= 2
    return cli


if __name__ == "__main__":
    set_up()
    done = time.monotonic()
    print(done, reference_mean_ms(0.05))
