"""The "mutants" Hypothesis profile of `tests/mutants.py`: a mutant need only
fail a test, so a failing example is not shrunk, which halves that run."""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
