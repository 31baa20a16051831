"""Columnar batch feature extraction: one pass per feature group.

This is the only production extraction path: a single page is a batch
of one.  Computed page by page, the 212 features each run through their
own chain of small Python calls (URL parsing, term extraction,
per-column numpy reductions on tiny arrays), and at batch scale that
dispatch — not arithmetic — dominates the cost.  :class:`BatchExtractor`
computes the 212 columns over a whole snapshot batch instead:

* all snapshots are **pre-tokenized once** through batch-scoped memo
  pools (:class:`_BatchPools`) — URL parses, term extractions and
  canonicalizations are pure functions of their input string, so a
  batch-wide pool returns the exact same values while collapsing the
  heavy duplication between pages (shared link URLs, repeated titles
  and brand strings);
* f1's per-link-set statistics are stacked **by set length** into
  ``(sets, stats, links)`` arrays and reduced along the innermost
  contiguous axis — one ``mean``/``median``/``std`` call per length
  class instead of 21 numpy calls per page;
* f2's Hellinger blocks run through
  :func:`~repro.text.distributions.hellinger_pairs_many`, sharing the
  pair-index setup across pages;
* f3/f4/f5 reuse the pooled parses, distributions and term tuples.

Bit-identity contract (enforced by ``tests/core/test_batch_differential``
against the per-page oracle in ``tests/core/oracle_features.py``, and by
the frozen golden feature matrix): every cell equals the straightforward
per-page computation **to the last bit**.  Two properties make that hold:

1. memo pools only cache pure functions, so pooling changes *when*
   a value is computed, never *what* it is;
2. f1's stacked reductions run along the innermost axis of a
   C-contiguous ``(sets, stats, links)`` array — numpy's 1-D reduction
   kernels then consume each row exactly as a per-page per-column
   ``matrix[:, c]`` reduction does, preserving float summation order.
   (Reducing over a *strided* axis instead would regroup partial sums
   and drift by ulps; the differential harness exists to catch exactly
   that class of regression.)

Batch cache protocol: with an :class:`~repro.parallel.cache.AnalysisCache`
attached, fingerprints are computed once per snapshot, warm rows are
served straight from the feature store (skipping columnarization
entirely), and only the misses are columnarized — sharing the
distribution store with target identification, then backfilling the
feature store row by row.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

import re
import unicodedata
from urllib.parse import urlsplit

from repro.core.datasources import F2_DISTRIBUTION_NAMES, DataSources
from repro.core.features import mld_usage, rdn_usage, term_consistency
from repro.core.features.url_features import STAT_FEATURES
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.parallel.cache import snapshot_fingerprint
from repro.text.distributions import TermDistribution, hellinger_pairs_many
from repro.text.terms import MIN_TERM_LENGTH, _canonicalize_char
from repro.urls.parsing import (
    _HOST_LABEL_RE,
    _SCHEME_RE,
    ParsedUrl,
    _is_ip_address,
    parse_url,
)
from repro.urls.public_suffix import PublicSuffixList
from repro.web.page import PageSnapshot

#: Sentinel distinguishing "never parsed" from "parsed to a failure".
_UNPARSED = object()

#: Cheap pre-filter for the exception-driven ``ipaddress`` probe: every
#: textual IPv4 address is digits and dots only, every textual IPv6
#: address contains a colon (bracketed or not).  Hosts matching neither
#: shape would make ``ipaddress.ip_address`` raise, so skipping the
#: probe for them returns the same ``False`` without paying for the
#: raised-and-caught ``ValueError``.
_IP_CANDIDATE_RE = re.compile(r"^[0-9.]+$|[:\[]")


class _CanonTable(dict):
    """Lazily-built ``str.translate`` table for term canonicalization.

    Maps each codepoint to exactly what
    :func:`repro.text.terms.canonicalize` emits for that character —
    its canonical a-z form, ``""`` for combining marks, ``" "``
    otherwise.  ``canonicalize`` is a per-character map, so translating
    with this table yields the identical string at C speed; the table
    content is a pure function of the codepoint, so lazy population
    order cannot change results.
    """

    def __missing__(self, code: int) -> str:
        char = chr(code)
        mapped = _canonicalize_char(char)
        if mapped:
            result = mapped
        elif unicodedata.combining(char):
            result = ""
        else:
            result = " "
        self[code] = result
        return result


class _MemoPsl(PublicSuffixList):
    """Batch-scoped memo over a :class:`PublicSuffixList`.

    Shares the base instance's parsed rule structures (no re-parse) and
    memoizes :meth:`split` — the one PSL call on ``parse_url``'s hot
    path — by FQDN.  Rule matching is a pure function of the FQDN, so
    the memo returns the exact tuples the base list would; link URLs
    concentrate on few hosts, making this the cheapest big win in the
    batch profile.
    """

    def __init__(self, base: PublicSuffixList) -> None:
        self._rules = base._rules
        self._by_tld = base._by_tld
        self._split_memo: dict[str, tuple[str, str, str]] = {}

    def split(self, fqdn: str) -> tuple[str, str, str]:
        hit = self._split_memo.get(fqdn)
        if hit is None:
            hit = super().split(fqdn)
            self._split_memo[fqdn] = hit
        return hit


class _BatchPools:
    """Batch-scoped memoization of the pure extraction primitives.

    Every pooled function is a pure function of its string input (plus
    the fixed PSL / Alexa configuration), so serving a memoized value
    is indistinguishable from recomputing it — the pools buy speed on
    duplicated inputs, never different floats.  Pools live for one
    batch only; nothing leaks across calls.
    """

    def __init__(self, psl, alexa) -> None:
        self.psl = _MemoPsl(psl)
        self.alexa = alexa
        self._parsed: dict[str, object] = {}
        self._hosts: dict[str, object] = {}
        self._terms: dict[str, tuple[str, ...]] = {}
        self._canonical_mld: dict[str, str] = {}
        self._stats: dict[str, tuple[float, ...]] = {}
        self._dists: dict[tuple[str, ...], TermDistribution] = {}
        self._canon = _CanonTable()

    # -- URLs ----------------------------------------------------------
    def _host_info(self, host: str):
        """Memoized host-derived parse components.

        ``(is_ip, subdomains, mld, public_suffix, rdn)`` for a valid
        host, ``None`` for one ``parse_url`` would reject — all pure
        functions of the (already normalized) host string.  Link URLs
        outnumber distinct hosts roughly 8:1 in real corpora, so
        memoizing at host level removes the IP probe, label validation
        and PSL rule matching from most parses.
        """
        info = self._hosts.get(host, _UNPARSED)
        if info is not _UNPARSED:
            return info
        if _IP_CANDIDATE_RE.search(host) and _is_ip_address(host):
            info = (True, "", None, None, None)
        else:
            info = None
            for label in host.split("."):
                if not _HOST_LABEL_RE.match(label):
                    break
            else:
                subdomains, mld, suffix = self.psl.split(host)
                rdn = f"{mld}.{suffix}" if mld and suffix else (mld or None)
                info = (
                    False, subdomains, mld or None, suffix or None, rdn
                )
        self._hosts[host] = info
        return info

    def _parse_one(self, url: str) -> ParsedUrl | None:
        """``parse_url`` with host-level memoization; ``None`` on failure.

        Mirrors :func:`repro.urls.parsing.parse_url` step for step —
        scheme defaulting, ``urlsplit``, host normalization, port
        fallback — but serves the host-derived fields from
        :meth:`_host_info`.  Succeeds with identical field values
        exactly when ``parse_url`` succeeds (the differential harness
        pins this); failures return ``None`` and the strict accessor
        re-raises through the real parser.
        """
        if not isinstance(url, str) or not url.strip():
            return None
        url = url.strip()
        if not _SCHEME_RE.match(url):
            url = "http://" + url
        try:
            split = urlsplit(url)
        except ValueError:
            return None
        host = (split.hostname or "").strip().strip(".").lower()
        if not host:
            return None
        info = self._host_info(host)
        if info is None:
            return None
        try:
            port = split.port
        except ValueError:
            port = None
        is_ip, subdomains, mld, suffix, rdn = info
        return ParsedUrl(
            raw=url,
            protocol=split.scheme.lower(),
            fqdn=host,
            port=port,
            path=split.path or "",
            query=split.query or "",
            fragment=split.fragment or "",
            is_ip=is_ip,
            subdomains=subdomains,
            mld=mld,
            public_suffix=suffix,
            rdn=rdn,
        )

    def _parse(self, url: str) -> ParsedUrl | None:
        hit = self._parsed.get(url, _UNPARSED)
        if hit is _UNPARSED:
            hit = self._parse_one(url)
            self._parsed[url] = hit
        return hit  # type: ignore[return-value]

    def try_parse(self, url: str) -> ParsedUrl | None:
        """Pooled lenient parse (``None`` for unparsable URLs)."""
        return self._parse(url)

    def parse(self, url: str) -> ParsedUrl:
        """Pooled strict parse; unparsable URLs raise like ``parse_url``."""
        parsed = self._parse(url)
        if parsed is None:
            # Re-parse to raise the original error with its message.
            return parse_url(url, self.psl)
        return parsed

    # -- text ----------------------------------------------------------
    def terms(self, text: str) -> tuple[str, ...]:
        """Pooled ``extract_terms`` (immutable, safe to share).

        Canonicalizes through the :class:`_CanonTable` translate table —
        the identical string ``canonicalize`` builds char by char, at C
        speed — then applies the same split / minimum-length filter.
        """
        hit = self._terms.get(text)
        if hit is None:
            canonical = text.translate(self._canon)
            hit = tuple(
                [
                    term
                    for term in canonical.split()
                    if len(term) >= MIN_TERM_LENGTH
                ]
            )
            self._terms[text] = hit
        return hit

    def dist(self, terms: tuple[str, ...]) -> TermDistribution:
        """Pooled :meth:`TermDistribution.from_terms`.

        A distribution is a pure function of its term *sequence*
        (``Counter`` insertion order fixes ``_probs`` iteration order),
        and distributions are immutable, so sharing one instance across
        pages with identical term sequences — repeated titles, shared
        RDN terms — is indistinguishable from rebuilding it.
        """
        hit = self._dists.get(terms)
        if hit is None:
            hit = TermDistribution.from_terms(terms)
            self._dists[terms] = hit
        return hit

    def canonical_mld(self, mld: str | None) -> str:
        """Pooled canonical mld string (f3's ``_canonical_mld``)."""
        if not mld:
            return ""
        hit = self._canonical_mld.get(mld)
        if hit is None:
            hit = mld.translate(self._canon).replace(" ", "")
            self._canonical_mld[mld] = hit
        return hit

    # -- f1 per-URL vectors --------------------------------------------
    def stat_vector(self, url: ParsedUrl) -> tuple[float, ...]:
        """Pooled Table IV features 3-9 (``url_features._stat_vector``)."""
        hit = self._stats.get(url.raw)
        if hit is None:
            mld = url.mld or ""
            hit = (
                float(url.level_domain_count),
                float(len(url.raw)),
                float(len(url.fqdn)),
                float(len(mld)),
                float(len(self.terms(url.raw))),
                float(len(self.terms(mld))),
                float(self.alexa.rank(url.rdn)),
            )
            self._stats[url.raw] = hit
        return hit

    def full_vector(self, url: ParsedUrl) -> list[float]:
        """All nine Table IV features (``url_features._full_vector``)."""
        free_url_dots = url.subdomains.count(".") + (1 if url.subdomains else 0)
        free_url_dots += url.path.count(".") + url.query.count(".")
        return [
            1.0 if url.uses_https else 0.0,
            float(free_url_dots),
            *self.stat_vector(url),
        ]


class _PooledSources(DataSources):
    """A :class:`DataSources` whose string primitives go through pools.

    Overrides only the seams where the base class calls
    ``parse_url``/``extract_terms`` directly; every derived quantity
    (partitions, distributions, degradation notes) keeps the base-class
    logic, so downstream consumers see identical values.
    """

    def __init__(self, snapshot: PageSnapshot, pools: _BatchPools, **kwargs):
        super().__init__(snapshot, psl=pools.psl, **kwargs)
        self._pools = pools

    def _parse_many(self, urls) -> list[ParsedUrl]:
        pooled = self._pools
        return [
            parsed
            for parsed in (pooled.try_parse(url) for url in urls)
            if parsed is not None
        ]

    @cached_property
    def starting(self) -> ParsedUrl:
        return self._pools.parse(self.snapshot.starting_url)

    @cached_property
    def landing(self) -> ParsedUrl:
        return self._pools.parse(self.snapshot.landing_url)

    # Instance-level overrides shadow the base staticmethods for `self.`
    # calls; external `DataSources.free_url_terms(...)` class calls keep
    # the unpooled base behaviour (same values either way).
    def free_url_terms(self, url: ParsedUrl):  # type: ignore[override]
        return self._pools.terms(url.free_url)

    def rdn_terms(self, url: ParsedUrl):  # type: ignore[override]
        return self._pools.terms(url.rdn) if url.rdn else ()

    def _free_url_distribution(self, urls) -> TermDistribution:
        pooled = self._pools
        terms: list[str] = []
        for url in urls:
            terms.extend(pooled.terms(url.free_url))
        return pooled.dist(tuple(terms))

    def _rdn_distribution(self, urls) -> TermDistribution:
        pooled = self._pools
        terms: list[str] = []
        for url in urls:
            if url.rdn:
                terms.extend(pooled.terms(url.rdn))
        return pooled.dist(tuple(terms))

    @cached_property
    def d_text(self) -> TermDistribution:
        return self._pools.dist(self._pools.terms(self.snapshot.text))

    @cached_property
    def d_title(self) -> TermDistribution:
        return self._pools.dist(self._pools.terms(self.snapshot.title))

    @cached_property
    def d_copyright(self) -> TermDistribution:
        return self._pools.dist(
            self._pools.terms(self.snapshot.copyright_notice)
        )

    @cached_property
    def d_start(self) -> TermDistribution:
        return self._pools.dist(self._pools.terms(self.starting.free_url))

    @cached_property
    def d_land(self) -> TermDistribution:
        return self._pools.dist(self._pools.terms(self.landing.free_url))

    @cached_property
    def d_startrdn(self) -> TermDistribution:
        return self._rdn_distribution((self.starting,))

    @cached_property
    def d_landrdn(self) -> TermDistribution:
        return self._rdn_distribution((self.landing,))


#: Column offsets of the five feature groups in the 212-wide layout.
_F1_END = 106
_F2_END = _F1_END + 66
_F3_END = _F2_END + 22
_F4_END = _F3_END + 13
_N_FEATURES = _F4_END + 5

#: f1 layout constants: 9 starting + 9 landing singles, then per link
#: set 1 https ratio + 7 stats x (mean, median, std).
_F1_SINGLES = 18
_F1_SET_WIDTH = 1 + len(STAT_FEATURES) * 3


class BatchExtractor:
    """Columnar batch companion of one
    :class:`~repro.core.features.extractor.FeatureExtractor`.

    Shares the extractor's configuration (Alexa ranking, PSL, term
    metric) and its :class:`~repro.parallel.cache.AnalysisCache`;
    :meth:`extract_batch` returns the same rows however the snapshots
    are batched, bit for bit, with warm cache rows skipping
    columnarization entirely.
    """

    def __init__(self, extractor) -> None:
        self.extractor = extractor

    def extract_batch(
        self,
        snapshots,
        tracer: AnyTracer = NULL_TRACER,
        keys: list[str | None] | None = None,
    ) -> np.ndarray:
        """Feature matrix for a snapshot batch, one columnar pass per group.

        ``keys`` optionally carries precomputed snapshot fingerprints
        (one per snapshot, ``None`` entries recomputed on demand) so
        callers that already fingerprinted — the pipeline's verdict
        memo, the serving engine — don't pay the hash twice.  Emits one
        ``extract`` span carrying batch size and cache-hit count, with
        one ``extract.f1`` .. ``extract.f5`` child per feature group
        when any row misses the cache.
        """
        snapshots = list(snapshots)
        extractor = self.extractor
        out = np.zeros((len(snapshots), _N_FEATURES), dtype=np.float64)
        if not snapshots:
            return out
        cache = extractor.cache
        with tracer.span("extract", n_pages=len(snapshots)) as span:
            if keys is None or cache is None:
                keys = [None] * len(snapshots)
            misses: list[int] = []
            for index, snapshot in enumerate(snapshots):
                row = None
                if cache is not None:
                    if keys[index] is None:
                        keys[index] = snapshot_fingerprint(snapshot)
                    row = cache.get_features(keys[index])
                if row is None:
                    misses.append(index)
                else:
                    out[index] = row
            span.set(cache_hits=len(snapshots) - len(misses))
            if not misses:
                return out
            pools = _BatchPools(extractor.psl, extractor.alexa)
            sources = [
                _PooledSources(
                    snapshots[index],
                    pools,
                    distribution_cache=(
                        cache.distributions if cache is not None else None
                    ),
                    cache_key=keys[index],
                )
                for index in misses
            ]
            block = np.zeros((len(misses), _N_FEATURES), dtype=np.float64)
            with tracer.span("extract.f1"):
                self._f1_block(sources, pools, block[:, :_F1_END])
            with tracer.span("extract.f2"):
                self._f2_block(sources, block[:, _F1_END:_F2_END])
            with tracer.span("extract.f3"):
                self._f3_block(sources, pools, block[:, _F2_END:_F3_END])
            with tracer.span("extract.f4"):
                for row, src in enumerate(sources):
                    block[row, _F3_END:_F4_END] = rdn_usage.compute(src)
            with tracer.span("extract.f5"):
                for row, src in enumerate(sources):
                    elements = src.snapshot.elements
                    block[row, _F4_END:] = (
                        float(len(pools.terms(src.snapshot.text))),
                        float(len(pools.terms(src.snapshot.title))),
                        float(elements.input_count),
                        float(elements.image_count),
                        float(elements.iframe_count),
                    )
            for row, index in enumerate(misses):
                out[index] = block[row]
                if cache is not None:
                    cache.put_features(keys[index], block[row])
        return out

    # ------------------------------------------------------------------
    def _f1_block(
        self, sources: list[_PooledSources], pools: _BatchPools,
        block: np.ndarray,
    ) -> None:
        """f1, columnar: singles per page, link-set stats by length class.

        Sets with the same link count stack into one C-contiguous
        ``(sets, 7 stats, links)`` array; reducing along the innermost
        axis computes every set's means/medians/stds in three numpy
        calls per length class while preserving the per-page per-column
        summation order (see module docstring, property 2).
        """
        # length -> [(row, set index, urls)]
        by_length: dict[int, list[tuple[int, int, list[ParsedUrl]]]] = {}
        for row, src in enumerate(sources):
            block[row, 0:9] = pools.full_vector(src.starting)
            block[row, 9:18] = pools.full_vector(src.landing)
            link_sets = (
                src.internal_logged, src.external_logged,
                src.internal_href, src.external_href,
            )
            for set_index, urls in enumerate(link_sets):
                if urls:  # empty sets keep their all-zero columns
                    by_length.setdefault(len(urls), []).append(
                        (row, set_index, urls)
                    )
        for length, entries in sorted(by_length.items()):
            stacked = np.empty(
                (len(entries), length, len(STAT_FEATURES)), dtype=np.float64
            )
            for entry, (_row, _set_index, urls) in enumerate(entries):
                for position, url in enumerate(urls):
                    stacked[entry, position] = pools.stat_vector(url)
            # (sets, links, stats) -> contiguous (sets, stats, links):
            # each reduced row is then the exact byte sequence the per-page
            # path reduces as matrix[:, column].
            columns = np.ascontiguousarray(stacked.transpose(0, 2, 1))
            means = columns.mean(axis=2)
            medians = np.median(columns, axis=2)
            stds = columns.std(axis=2)
            for entry, (row, set_index, urls) in enumerate(entries):
                base = _F1_SINGLES + set_index * _F1_SET_WIDTH
                # Exact replacement for np.mean([uses_https...]): sums of
                # 0/1 flags are integers, exact in float64 under any
                # summation order, and the final division rounds once
                # identically in both forms.
                block[row, base] = sum(
                    url.uses_https for url in urls
                ) / len(urls)
                stop = base + _F1_SET_WIDTH
                block[row, base + 1:stop:3] = means[entry]
                block[row, base + 2:stop:3] = medians[entry]
                block[row, base + 3:stop:3] = stds[entry]

    def _f2_block(
        self, sources: list[_PooledSources], block: np.ndarray
    ) -> None:
        """f2, batched: every page's pair block from one kernel call."""
        metric = self.extractor.term_metric
        dists = [
            [src.distribution(name) for name in F2_DISTRIBUTION_NAMES]
            for src in sources
        ]
        if metric == "hellinger":
            block[:] = hellinger_pairs_many(
                dists, term_consistency._PAIR_INDICES
            )
            return
        distance = term_consistency.METRICS[metric]
        block[:] = [
            [
                distance(page[first], page[second])
                for first, second in term_consistency._PAIR_INDICES
            ]
            for page in dists
        ]

    def _f3_block(
        self, sources: list[_PooledSources], pools: _BatchPools,
        block: np.ndarray,
    ) -> None:
        """f3 with pooled canonical mlds; distributions are already hot
        on each instance from the f2 pass."""
        for row, src in enumerate(sources):
            start_mld = pools.canonical_mld(src.starting.mld)
            land_mld = pools.canonical_mld(src.landing.mld)
            col = 0
            for mld in (start_mld, land_mld):
                for source in mld_usage.BINARY_SOURCES:
                    block[row, col] = (
                        1.0 if mld and mld in src.distribution(source) else 0.0
                    )
                    col += 1
            for mld in (start_mld, land_mld):
                for source in mld_usage.MASS_SOURCES:
                    if mld:
                        block[row, col] = src.distribution(
                            source
                        ).probability_mass_of_substrings(mld)
                    col += 1
