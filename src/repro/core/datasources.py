"""Data sources of a webpage: Table I distributions, Table II partition.

:class:`DataSources` wraps a scraped :class:`~repro.web.page.PageSnapshot`
and exposes:

* the parsed URL views (starting, landing, redirection chain, logged
  links, HREF links);
* the **control partition** of Section III-A — RDNs occurring in the
  redirection chain are assumed under the page owner's control, so every
  link sharing one of those RDNs is *internal*, everything else
  *external*;
* the 14 **term distributions** of Table I, computed lazily and cached.

For IP-based URLs the RDN is undefined; RDN-based distributions are then
empty, reproducing the paper's Section VII-B observation that such pages
yield several null features.
"""

from __future__ import annotations

from collections.abc import Hashable
from functools import cached_property

from repro.resilience.errors import OcrFailure
from repro.text.distributions import TermDistribution
from repro.text.terms import extract_terms
from repro.urls.parsing import ParsedUrl, UrlParseError, parse_url
from repro.urls.public_suffix import PublicSuffixList, default_psl
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot

#: The 12 distributions used by feature set f2 (copyright and image are
#: excluded, Section IV-B).
F2_DISTRIBUTION_NAMES = (
    "text", "title", "start", "land", "intlog", "intlink",
    "startrdn", "landrdn", "intrdn", "extrdn", "extlog", "extlink",
)

#: All Table I distribution names.
ALL_DISTRIBUTION_NAMES = F2_DISTRIBUTION_NAMES + ("copyright", "image")


def _url_identity(url: ParsedUrl) -> str:
    """Ownership identity of a URL: its RDN, or the raw host for IPs."""
    return url.rdn if url.rdn else url.fqdn


class DataSources:
    """Derived view of one page snapshot (distributions + partitions).

    This base class is the plain, unpooled view: it parses with
    :func:`~repro.urls.parsing.parse_url` and tokenises with
    :func:`~repro.text.terms.extract_terms`, which keeps it an
    independent reference for tests and standalone identification.
    The pipeline instead builds one pooled subclass instance per page
    (``repro.core.features.batch.page_views``) that extraction and
    target identification share, so consumers reach URL parses and
    term lists only through the instance (``sources.text_terms(...)``,
    ``sources.free_url_terms(...)``, ``sources.rdn_terms(...)``),
    never through the class.

    Parameters
    ----------
    snapshot:
        The scraped page.
    psl:
        Public-suffix list for URL decomposition.
    ocr:
        OCR engine for the ``image`` distribution; ``None`` disables OCR
        (``D_image`` is then empty) — OCR is slow and only consulted on
        demand (Section V-A).
    distribution_cache:
        Optional cross-snapshot memoization store (an
        :class:`~repro.parallel.cache.LruCache`-like object with
        ``get``/``put``) shared by many ``DataSources`` instances.  The
        per-instance ``cached_property`` laziness already deduplicates
        work within one instance; this cache deduplicates across
        repeated analyses of the same content.  Requires ``cache_key``.
    cache_key:
        Hashable key naming ``snapshot``'s content and everything its
        distributions depend on, namespacing the shared cache (the
        batch extractor passes ``(config_digest, fingerprint)``).
    """

    def __init__(
        self,
        snapshot: PageSnapshot,
        psl: PublicSuffixList | None = None,
        ocr: SimulatedOcr | None = None,
        distribution_cache=None,
        cache_key: Hashable | None = None,
    ):
        self.snapshot = snapshot
        self.psl = psl or default_psl()
        self.ocr = ocr
        if distribution_cache is not None and cache_key is None:
            raise ValueError("distribution_cache requires a cache_key")
        self._distribution_cache = distribution_cache
        self._cache_key = cache_key
        #: degradation tags accumulated while deriving the sources
        #: (e.g. ``"ocr_failed"``); consumed by the pipeline's verdict.
        self.degradation_notes: set[str] = set()

    # ------------------------------------------------------------------
    # parsed URL views
    # ------------------------------------------------------------------
    def _parse_many(self, urls) -> list[ParsedUrl]:
        parsed = []
        for url in urls:
            try:
                parsed.append(parse_url(url, self.psl))
            except UrlParseError:
                continue
        return parsed

    @cached_property
    def starting(self) -> ParsedUrl:
        """Parsed starting URL."""
        return parse_url(self.snapshot.starting_url, self.psl)

    @cached_property
    def landing(self) -> ParsedUrl:
        """Parsed landing URL."""
        return parse_url(self.snapshot.landing_url, self.psl)

    @cached_property
    def redirection_chain(self) -> list[ParsedUrl]:
        """Parsed redirection chain (starting and landing included)."""
        return self._parse_many(self.snapshot.redirection_chain)

    @cached_property
    def logged_links(self) -> list[ParsedUrl]:
        """Parsed logged (embedded-resource) links."""
        return self._parse_many(self.snapshot.logged_links)

    @cached_property
    def href_links(self) -> list[ParsedUrl]:
        """Parsed outgoing HREF links."""
        return self._parse_many(self.snapshot.href_links)

    # ------------------------------------------------------------------
    # control partition (Section III-A)
    # ------------------------------------------------------------------
    @cached_property
    def controlled_identities(self) -> set[str]:
        """RDNs (or IP hosts) assumed under the page owner's control."""
        return {_url_identity(url) for url in self.redirection_chain}

    def is_internal(self, url: ParsedUrl) -> bool:
        """True when ``url`` shares an RDN with the redirection chain."""
        return _url_identity(url) in self.controlled_identities

    @cached_property
    def internal_logged(self) -> list[ParsedUrl]:
        """Logged links under the page owner's control."""
        return [url for url in self.logged_links if self.is_internal(url)]

    @cached_property
    def external_logged(self) -> list[ParsedUrl]:
        """Logged links outside the owner's control."""
        return [url for url in self.logged_links if not self.is_internal(url)]

    @cached_property
    def internal_href(self) -> list[ParsedUrl]:
        """HREF links under the page owner's control."""
        return [url for url in self.href_links if self.is_internal(url)]

    @cached_property
    def external_href(self) -> list[ParsedUrl]:
        """HREF links outside the owner's control."""
        return [url for url in self.href_links if not self.is_internal(url)]

    # ------------------------------------------------------------------
    # term helpers
    # ------------------------------------------------------------------
    @staticmethod
    def text_terms(text: str) -> list[str]:
        """Terms of a free-text source (body, title, copyright, OCR)."""
        return extract_terms(text)

    @staticmethod
    def free_url_terms(url: ParsedUrl) -> list[str]:
        """Terms of a URL's FreeURL (subdomains, path, query)."""
        return extract_terms(url.free_url)

    @staticmethod
    def rdn_terms(url: ParsedUrl) -> list[str]:
        """Terms of a URL's RDN (empty for IP-based URLs)."""
        return extract_terms(url.rdn) if url.rdn else []

    def _free_url_distribution(self, urls) -> TermDistribution:
        terms: list[str] = []
        for url in urls:
            terms.extend(self.free_url_terms(url))
        return TermDistribution.from_terms(terms)

    def _rdn_distribution(self, urls) -> TermDistribution:
        terms: list[str] = []
        for url in urls:
            terms.extend(self.rdn_terms(url))
        return TermDistribution.from_terms(terms)

    # ------------------------------------------------------------------
    # Table I distributions
    # ------------------------------------------------------------------
    @cached_property
    def d_text(self) -> TermDistribution:
        """``D_text`` — terms of the rendered body text."""
        return TermDistribution.from_text(self.snapshot.text)

    @cached_property
    def d_title(self) -> TermDistribution:
        """``D_title`` — terms of the page title."""
        return TermDistribution.from_text(self.snapshot.title)

    @cached_property
    def d_copyright(self) -> TermDistribution:
        """``D_copyright`` — terms of the copyright notice."""
        return TermDistribution.from_text(self.snapshot.copyright_notice)

    @cached_property
    def d_image(self) -> TermDistribution:
        """OCR-derived distribution; empty without an OCR engine.

        An OCR *failure* degrades gracefully to the same empty
        distribution an OCR-less run produces, noted in
        :attr:`degradation_notes` — image terms are a refinement, never
        a hard dependency.
        """
        if self.ocr is None:
            return TermDistribution()
        try:
            text = self.ocr.read(self.snapshot.screenshot)
        except OcrFailure:
            self.degradation_notes.add("ocr_failed")
            return TermDistribution()
        return TermDistribution.from_text(text)

    @cached_property
    def d_start(self) -> TermDistribution:
        """``D_start`` — FreeURL terms of the starting URL."""
        return TermDistribution.from_terms(self.free_url_terms(self.starting))

    @cached_property
    def d_land(self) -> TermDistribution:
        """``D_land`` — FreeURL terms of the landing URL."""
        return TermDistribution.from_terms(self.free_url_terms(self.landing))

    @cached_property
    def d_intlog(self) -> TermDistribution:
        """``D_intlog`` — FreeURL terms of internal logged links."""
        return self._free_url_distribution(self.internal_logged)

    @cached_property
    def d_intlink(self) -> TermDistribution:
        """``D_intlink`` — FreeURL terms of internal HREF links."""
        return self._free_url_distribution(self.internal_href)

    @cached_property
    def d_startrdn(self) -> TermDistribution:
        """``D_startrdn`` — RDN terms of the starting URL."""
        return TermDistribution.from_terms(self.rdn_terms(self.starting))

    @cached_property
    def d_landrdn(self) -> TermDistribution:
        """``D_landrdn`` — RDN terms of the landing URL."""
        return TermDistribution.from_terms(self.rdn_terms(self.landing))

    @cached_property
    def d_intrdn(self) -> TermDistribution:
        """RDN terms of internal links, HREF and logged combined."""
        return self._rdn_distribution(self.internal_href + self.internal_logged)

    @cached_property
    def d_extrdn(self) -> TermDistribution:
        """``D_extrdn`` — RDN terms of external logged links."""
        return self._rdn_distribution(self.external_logged)

    @cached_property
    def d_extlog(self) -> TermDistribution:
        """``D_extlog`` — FreeURL terms of external logged links."""
        return self._free_url_distribution(self.external_logged)

    @cached_property
    def d_extlink(self) -> TermDistribution:
        """``D_extlink`` — FreeURL terms of external HREF links."""
        return self._free_url_distribution(self.external_href)

    def distribution(self, name: str) -> TermDistribution:
        """Lookup a Table I distribution by its short name.

        When a shared distribution cache is attached, every name except
        ``image`` is served from (and fills) that cache — ``D_image``
        depends on the OCR engine and its failure modes, not only on
        page content, so it is always recomputed.  Distributions are
        immutable, so a cache hit is indistinguishable from a fresh
        computation.
        """
        if name not in ALL_DISTRIBUTION_NAMES:
            raise KeyError(
                f"unknown distribution {name!r}; "
                f"expected one of {ALL_DISTRIBUTION_NAMES}"
            )
        if self._distribution_cache is None or name == "image":
            return getattr(self, f"d_{name}")
        key = (self._cache_key, name)
        cached = self._distribution_cache.get(key)
        if cached is None:
            cached = getattr(self, f"d_{name}")
            self._distribution_cache.put(key, cached)
        return cached
