"""Per-page feature oracle: the 212 features computed one page at a time.

The production extractor is the columnar
:class:`~repro.core.features.batch.BatchExtractor`; a single page is a
batch of one.  This module keeps the straightforward per-page
implementation of the feature groups — one ``DataSources`` per page,
one plain Python/numpy computation per group — as an independent
reference that ``test_batch_differential.py`` and ``test_features.py``
compare the batch path against, cell for cell and bit for bit.

f4 has no oracle copy: :func:`repro.core.features.rdn_usage.compute`
is already per page and the batch path calls it row by row.  f1 reuses
the per-URL helpers of :mod:`repro.core.features.url_features`, which
stay in the package for the flat-f1 ablation and are not used by the
batch path.
"""

from __future__ import annotations

import numpy as np

from repro.core.datasources import F2_DISTRIBUTION_NAMES, DataSources
from repro.core.features import rdn_usage
from repro.core.features.mld_usage import BINARY_SOURCES, MASS_SOURCES
from repro.core.features.term_consistency import METRICS, _PAIR_INDICES
from repro.core.features.url_features import (
    LINK_SETS,
    _full_vector,
    _set_statistics,
)
from repro.text.distributions import TermDistribution, hellinger_pairs
from repro.text.terms import canonicalize, extract_terms
from repro.urls.alexa import AlexaRanking
from repro.urls.public_suffix import PublicSuffixList
from repro.web.page import PageSnapshot

# ---------------------------------------------------------------------------
# f1: 106 URL statistical features (Table IV)
# ---------------------------------------------------------------------------


def f1_compute(sources: DataSources, alexa: AlexaRanking) -> list[float]:
    """Compute the 106 f1 features for one page."""
    features: list[float] = []
    features.extend(_full_vector(sources.starting, alexa))
    features.extend(_full_vector(sources.landing, alexa))
    for set_name in LINK_SETS:
        urls = {
            "intlog": sources.internal_logged,
            "extlog": sources.external_logged,
            "intlink": sources.internal_href,
            "extlink": sources.external_href,
        }[set_name]
        features.extend(_set_statistics(urls, alexa))
    return features


# ---------------------------------------------------------------------------
# f2: 66 term-usage-consistency features
# ---------------------------------------------------------------------------


def f2_compute_pairs(
    sources: DataSources, metric: str = "hellinger"
) -> np.ndarray:
    """The 66 pairwise distances as one float64 array.

    ``"hellinger"`` runs the vectorised batch; other metrics fall back
    to their scalar pairwise function.
    """
    if metric not in METRICS:
        raise ValueError(
            f"unknown f2 metric {metric!r}; expected one of {sorted(METRICS)}"
        )
    distributions = [
        sources.distribution(name) for name in F2_DISTRIBUTION_NAMES
    ]
    if metric == "hellinger":
        return hellinger_pairs(distributions, _PAIR_INDICES)
    distance = METRICS[metric]
    return np.asarray(
        [
            distance(distributions[first], distributions[second])
            for first, second in _PAIR_INDICES
        ],
        dtype=np.float64,
    )


def f2_compute(sources: DataSources, metric: str = "hellinger") -> list[float]:
    """Compute the 66 pairwise distribution distances for one page."""
    return f2_compute_pairs(sources, metric=metric).tolist()


# ---------------------------------------------------------------------------
# f3: 22 starting/landing mld usage features
# ---------------------------------------------------------------------------


def _canonical_mld(mld: str | None) -> str:
    """The mld as a single canonical letter string ('' when absent)."""
    if not mld:
        return ""
    return canonicalize(mld).replace(" ", "")


def _appears_in(mld: str, distribution: TermDistribution) -> float:
    """1.0 when the canonical mld occurs as a term of the distribution."""
    return 1.0 if mld and mld in distribution else 0.0


def _substring_mass(mld: str, distribution: TermDistribution) -> float:
    """Probability mass of terms that are substrings of the mld."""
    if not mld:
        return 0.0
    return distribution.probability_mass_of_substrings(mld)


def f3_compute(sources: DataSources) -> list[float]:
    """Compute the 22 f3 features for one page."""
    start_mld = _canonical_mld(sources.starting.mld)
    land_mld = _canonical_mld(sources.landing.mld)

    features: list[float] = []
    for mld in (start_mld, land_mld):
        for source in BINARY_SOURCES:
            features.append(_appears_in(mld, sources.distribution(source)))
    for mld in (start_mld, land_mld):
        for source in MASS_SOURCES:
            features.append(_substring_mass(mld, sources.distribution(source)))
    return features


# ---------------------------------------------------------------------------
# f5: 5 webpage-content features
# ---------------------------------------------------------------------------


def f5_compute(sources: DataSources) -> list[float]:
    """Compute the 5 f5 features for one page."""
    elements = sources.snapshot.elements
    return [
        float(len(extract_terms(sources.snapshot.text))),
        float(len(extract_terms(sources.snapshot.title))),
        float(elements.input_count),
        float(elements.image_count),
        float(elements.iframe_count),
    ]


# ---------------------------------------------------------------------------
# The full 212-feature vector
# ---------------------------------------------------------------------------


def extract(
    snapshot: PageSnapshot,
    alexa: AlexaRanking | None = None,
    psl: PublicSuffixList | None = None,
    metric: str = "hellinger",
) -> np.ndarray:
    """The 212-feature vector ``[f1 | f2 | f3 | f4 | f5]`` of one page."""
    sources = DataSources(snapshot, psl=psl)
    vector = (
        f1_compute(sources, alexa or AlexaRanking())
        + f2_compute(sources, metric=metric)
        + f3_compute(sources)
        + rdn_usage.compute(sources)
        + f5_compute(sources)
    )
    return np.asarray(vector, dtype=np.float64)
