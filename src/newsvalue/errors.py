"""The toolkit's errors: one class per non-zero exit code the CLI maps
them to (a missing input, exit 2, is a FileNotFoundError)."""

from __future__ import annotations


class DegenerateLabels(Exception):
    """Exit 3: too little to fit or evaluate on: a single class, fewer
    examples than the folds need, or no document, vector, centroid or
    feature group to build from."""


class SchemaMismatch(Exception):
    """Exit 4: a config, gazetteer, feature or model file, or an output
    path, does not match what the command expects."""
