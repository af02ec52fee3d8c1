import os

import hypothesis

hypothesis.settings.register_profile("default", deadline=None)
# GitHub Actions sets CI: there every run draws the same examples, and a
# failure prints the blob that reproduces it
hypothesis.settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
hypothesis.settings.load_profile("ci" if "CI" in os.environ else "default")
