"""Shared utilities: randomness handling and input validation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "check_random_state": "rng",
    "spawn_seeds": "rng",
    "check_labels": "validation",
    "check_matrix": "validation",
    "check_square": "validation",
    "check_symmetric": "validation",
    "check_views": "validation",
})
