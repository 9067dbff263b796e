from hypothesis import Phase, settings

# tests/mutants.py runs each mutant's tests under this profile: one
# failing example kills a mutant, so shrinking it, and explaining the
# shrunk example, only adds time.  Plain runs keep the default profile
settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
