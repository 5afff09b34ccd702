"""Hypothesis profiles for the test suite.

`tests/mutants.py` runs its named tests under the "mutants" profile. A
mutant has only to make a test fail, so the first failing draw is
reported as found, without shrinking it to a minimal example: on the
fuzzer, shrinking alone can take minutes.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
