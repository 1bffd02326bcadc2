"""
Checking the guarantees numerically
===================================

Every constant the trackers rely on is re-verified by computation.  The
claims, with their expected values and tolerances, are the rows of
``kinostable.verify.CLAIMS``; this demo runs that table as
``kinostable verify`` does, with smaller knobs to keep it quick.
"""

from kinostable import SuiteOptions, run_claim_suite

report = run_claim_suite(SuiteOptions(walks=4, trig_samples=20_000))
for line in report.table_lines():
    print(line)
print()
print("all claims pass" if report.passed else "SOME CLAIMS FAILED")
assert report.passed

# The principal axis is the one descriptor a speed-capped chaser cannot
# save: a dense cluster hugging one end of the diametrical pair can orbit
# that endpoint in a sliver of time and swing the axis arbitrarily fast,
# even though the diameter never shrinks below 1 and no point exceeds unit
# speed.  The axis-speed-escape claim above measures exactly that.
