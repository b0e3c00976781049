"""Exact computation of Kostka-Foulkes polynomials and of the bigraded
Hilbert series attached to nilpotent cones, Slodowy slices, Springer fibers
and nilpotent orbit closures in type A, with Weyl-group Molien data for the
other classical and exceptional types.

Submodules load on first use (PEP 562): `import nilcone` imports none of
them, and the first access to an exported name imports its home module."""

__version__ = "0.1.0"

# home module: the names the package exports from it
_EXPORTS = {
    "laurent": ("BiLaurentPoly", "ExactDivisionError", "LaurentPoly", "TruncatedSeries"),
    "partitions": ("Partition", "partitions_of"),
    "tableaux": ("ssyt_enumerate",),
    "kostka": ("CONVENTION_TAG", "charge", "compute_kostka_table", "fake_degree_qhook",
               "kostka_foulkes", "kostka_foulkes_charge", "kostka_from_fake_degree"),
    "weyl": ("WeylType", "enumeration_counts", "fake_degree_molien", "pn_series_molien",
             "sn_character_values", "weyl_type"),
    "springer": ("BigradedSeries", "ProudfootReport", "hp0_slice_series",
                 "hp0_walg_full_series", "ih_orbit_closure", "ih_s3_variety", "kostka_g",
                 "orbit_dim", "pn_series", "proudfoot_check", "slice_series_typeA_printed",
                 "springer_fiber_series"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "verify", "cli")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or an exported name read from its home module and kept
    in the package namespace; anything else is an AttributeError."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
