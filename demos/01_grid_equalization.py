"""Idealized sleep-phase equalization, two sweep cells run as one stack.

N neurons share the same input stream. Each update pulls every neuron's
weight vector toward the population mean response while a small decay
anchors it to its initial value. The across-neuron spread, measured as
-log SNR, falls until it hits the decay-imposed floor 2*ln(gamma/(1+gamma)).
The two cells differ only in gamma; each keeps its own random stream, so
each ends exactly where it would if run on its own.
"""

from sleepshare import (Schedule, SleepConfig, WeightBundle, neg_log_snr,
                        neg_log_snr_floor, sleep_run)
from sleepshare.mathcore import RngStream

gammas = (1e-2, 1e-3)
gens = [RngStream(0, (7, 3, int(gamma * 1e9), 0)).generator() for gamma in gammas]
bundles = [WeightBundle.from_rng(gen, n=100, d=9) for gen in gens]
configs = [SleepConfig(
    gamma=gamma,
    schedule=Schedule("inverse_time", a=0.5, b=1000.0),
    iterations=2000,
    momentum=0.95,
) for gamma in gammas]
starts = [neg_log_snr(bundle.weights) for bundle in bundles]
for gamma, start, result in zip(gammas, starts, sleep_run(bundles, configs, gens)):
    floor = neg_log_snr_floor(gamma)
    print(f"gamma={gamma:g}: start {start:+.2f} -> terminal "
          f"{result.terminal:+.2f} (floor {floor:+.2f})")

print()
print("Same protocol, run from the command line:")
print("  sleepshare sleep-ideal --out runs/sweep")
