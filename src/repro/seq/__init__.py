"""Sequence substrate: DNA alphabet, encoding, scoring, and mutation models.

This package is the foundation for every genomics kernel in the
reproduction.  It provides:

- :mod:`repro.seq.alphabet` -- the DNA alphabet, 2-bit encoding, and
  validation helpers.
- :mod:`repro.seq.scoring` -- substitution score matrices and gap-penalty
  models (linear, affine, convex) shared by the alignment kernels.
- :mod:`repro.seq.mutate` -- a parameterized mutation model (substitutions,
  insertions, deletions) used to synthesize reads from templates.
- :mod:`repro.seq.records` -- lightweight read/reference record types.
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "DNA_ALPHABET": "alphabet",
        "complement": "alphabet",
        "decode": "alphabet",
        "encode": "alphabet",
        "is_dna": "alphabet",
        "random_sequence": "alphabet",
        "reverse_complement": "alphabet",
        "MutationProfile": "mutate",
        "Mutator": "mutate",
        "Read": "records",
        "ReadPair": "records",
        "Reference": "records",
        "AffineGap": "scoring",
        "ConvexGap": "scoring",
        "GapModel": "scoring",
        "LinearGap": "scoring",
        "ScoringScheme": "scoring",
        "SubstitutionMatrix": "scoring",
    },
)

__all__ = [
    "DNA_ALPHABET",
    "complement",
    "decode",
    "encode",
    "is_dna",
    "random_sequence",
    "reverse_complement",
    "MutationProfile",
    "Mutator",
    "Read",
    "ReadPair",
    "Reference",
    "AffineGap",
    "ConvexGap",
    "GapModel",
    "LinearGap",
    "ScoringScheme",
    "SubstitutionMatrix",
]
