"""Exact computation of Kostka-Foulkes polynomials and of the bigraded
Hilbert series attached to nilpotent cones, Slodowy slices, Springer fibers
and nilpotent orbit closures in type A, with Weyl-group Molien data for the
other classical and exceptional types."""

from .laurent import (
    BiLaurentPoly,
    ExactDivisionError,
    LaurentPoly,
    TruncatedSeries,
)
from .partitions import Partition, partitions_of
from .tableaux import ssyt_enumerate, syt_enumerate, syt_major_index_genfun
from .kostka import (
    CONVENTION_TAG,
    charge,
    compute_kostka_table,
    fake_degree_qhook,
    kostka_foulkes,
    kostka_foulkes_charge,
    kostka_from_fake_degree,
)
from .weyl import (
    ClassDatum,
    WeylType,
    conjugacy_data,
    enumeration_counts,
    fake_degree_molien,
    mn_character,
    molien_graded_character,
    pn_series_molien,
    sn_character_values,
    weyl_type,
)
from .springer import (
    BigradedSeries,
    ProudfootReport,
    hp0_slice_series,
    hp0_walg_full_series,
    ih_orbit_closure,
    ih_s3_variety,
    kostka_g,
    orbit_dim,
    pn_series,
    proudfoot_check,
    slice_series_typeA_printed,
    springer_fiber_series,
)

__version__ = "0.1.0"

__all__ = [
    "BiLaurentPoly",
    "BigradedSeries",
    "CONVENTION_TAG",
    "ClassDatum",
    "ExactDivisionError",
    "LaurentPoly",
    "Partition",
    "ProudfootReport",
    "TruncatedSeries",
    "WeylType",
    "charge",
    "compute_kostka_table",
    "conjugacy_data",
    "enumeration_counts",
    "fake_degree_molien",
    "fake_degree_qhook",
    "hp0_slice_series",
    "hp0_walg_full_series",
    "ih_orbit_closure",
    "ih_s3_variety",
    "kostka_foulkes",
    "kostka_foulkes_charge",
    "kostka_from_fake_degree",
    "kostka_g",
    "mn_character",
    "molien_graded_character",
    "orbit_dim",
    "partitions_of",
    "pn_series",
    "pn_series_molien",
    "proudfoot_check",
    "slice_series_typeA_printed",
    "sn_character_values",
    "springer_fiber_series",
    "ssyt_enumerate",
    "syt_enumerate",
    "syt_major_index_genfun",
    "weyl_type",
]
