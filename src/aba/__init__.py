"""Validity-aware network-agnostic byzantine agreement toolkit.

A solvability checker for validity properties over finite domains, a
similarity-certificate synthesizer, a deterministic protocol simulator with
an agreement-on-a-core-set stack, and executable lower-bound constructions.
"""

from .core import (
    Budget,
    CertificateOutcome,
    Domain,
    InputConfiguration,
    SimilarityCertificate,
    SolvabilityVerdict,
    SystemParams,
    ValidityProperty,
    compute_similarity_certificate,
    is_solvable,
)

__version__ = "0.1.0"
