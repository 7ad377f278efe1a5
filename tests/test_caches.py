"""The package's memos: which ones exist, and that clearing them changes no
result."""

import importlib
import json
import pkgutil

import grigorchuk
from grigorchuk.wreath import certify_torsion, is_trivial, level_action, order, verify_nball_proposition

CACHES = {
    "cubic._lambda_bounds",
    "cubic._lambda_power",
    "cubic._power_ceiling",
    "wreath._in_open_ball",
    "wreath._is_trivial",
    "wreath._order",
    "wreath._letter_action",
    "wreath._class_exponent",
    "wreath._section_table",
}


def package_caches() -> dict:
    """Every module attribute of the package with ``cache_clear``, named by
    the module that defines it, so that an import elsewhere counts once."""
    found = {}
    for info in pkgutil.iter_modules(grigorchuk.__path__):
        module = importlib.import_module(f"grigorchuk.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                name = f"{obj.__module__.removeprefix('grigorchuk.')}.{obj.__qualname__}"
                found[name] = obj
    return found


def results() -> list[str]:
    return [
        json.dumps(verify_nball_proposition(10).to_dict()),
        certify_torsion("abadacab", 9).to_json(),
        repr(order("ab")),
        repr(level_action("abacad", 6)),
        repr(is_trivial("ad" * 8)),
    ]


def test_cache_inventory_and_cold_warm_agreement():
    caches = package_caches()
    assert set(caches) == CACHES
    for cache in caches.values():
        cache.cache_clear()
    cold = results()
    assert all(cache.cache_info().currsize for cache in caches.values())
    assert results() == cold
