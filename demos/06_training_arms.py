"""Does scheduled sharing help a locally connected network generalize?

Small translated-shapes task, four training arms:
  conv      one kernel per layer, translation built in
  lc        independent kernel at every position
  lc-reps:4 each image appears 4 times per batch under random shifts
  lc-ws:1   grid-wise weight sharing applied every batch

Full desk-scale settings live behind `sleepshare compare`; this script
runs a shortened version (smaller net, hotter schedule) that finishes
in about a minute and shows the same ordering: both sharing and
translation repetitions lift the free LC net, and the built-in
equivariance of conv still wins.
"""

from sleepshare.trainer import run_experiment

for arm in ("conv", "lc", "lc-reps:4", "lc-ws:1"):
    h = run_experiment(arm, 0, train_size=256, test_size=512, epochs=30, channels=4, lr=3e-2)
    print(f"{arm:10s} final test accuracy {h.final_test_accuracy:.3f}")

print()
print("Full comparison (about 120 s on 2 cores at --jobs 1):")
print("  sleepshare compare --out runs/compare")
