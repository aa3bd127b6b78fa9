"""Built-in ccs-lint rules.

Importing this package registers every rule class with the registry in
:mod:`repro.lint.registry`.  Adding a rule = adding a module here that
defines a :class:`~repro.lint.registry.Rule` subclass decorated with
``@register``, and importing it below (docs/LINTING.md walks through
the full recipe, including the required test fixtures).
"""

from __future__ import annotations

from . import (  # noqa: F401  (imports register the rules)
    ccs001_global_rng,
    ccs002_wallclock,
    ccs003_float_equality,
    ccs004_coalition_cache,
    ccs005_storage_seam,
    ccs006_unordered_iteration,
    ccs007_canonical_json,
    ccs008_array_numeric,
    ccs009_impure_sink_path,
    ccs010_shared_worker_state,
    ccs011_unjournaled_mutation,
    ccs012_tainted_seed,
)

__all__ = [
    "ccs001_global_rng",
    "ccs002_wallclock",
    "ccs003_float_equality",
    "ccs004_coalition_cache",
    "ccs005_storage_seam",
    "ccs006_unordered_iteration",
    "ccs007_canonical_json",
    "ccs008_array_numeric",
    "ccs009_impure_sink_path",
    "ccs010_shared_worker_state",
    "ccs011_unjournaled_mutation",
    "ccs012_tainted_seed",
]
