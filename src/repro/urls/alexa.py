"""Popularity ranking substrate standing in for the Alexa top-1M list.

Feature 9 of the paper (Table IV) is "Alexa ranking of the RDN", looked up
in a previously downloaded local copy of the Alexa top-million list, with a
default value of 1,000,001 for unranked domains.  The live list is gone
(and unavailable offline anyway), so :class:`AlexaRanking` provides the
same interface over a ranking assembled from the synthetic web's
legitimate domains, with ranks assigned by a deterministic Zipf-like
popularity model.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping

DEFAULT_UNRANKED = 1_000_001
TOP_LIST_SIZE = 1_000_000


class AlexaRanking:
    """A local popularity ranking of registered domain names.

    Parameters
    ----------
    ranks:
        Either an ordered iterable of RDNs (rank = position, starting at 1)
        or a mapping ``rdn -> rank``.
    default:
        Rank returned for unlisted domains (paper: 1,000,001).
    """

    def __init__(
        self,
        ranks: Iterable[str] | Mapping[str, int] = (),
        default: int = DEFAULT_UNRANKED,
    ):
        self.default = default
        if isinstance(ranks, Mapping):
            self._ranks = {rdn.lower(): int(rank) for rdn, rank in ranks.items()}
        else:
            self._ranks = {
                rdn.lower(): position
                for position, rdn in enumerate(ranks, start=1)
            }

    def __len__(self) -> int:
        return len(self._ranks)

    def __contains__(self, rdn: str) -> bool:
        return rdn is not None and rdn.lower() in self._ranks

    def rank(self, rdn: str | None) -> int:
        """Return the rank of ``rdn``, or the default for unknown/IP hosts."""
        if not rdn:
            return self.default
        return self._ranks.get(rdn.lower(), self.default)

    def is_ranked(self, rdn: str | None) -> bool:
        """True when ``rdn`` appears in the (top-1M) list."""
        return self.rank(rdn) < self.default

    def add(self, rdn: str, rank: int) -> None:
        """Insert or update a domain's rank."""
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self._ranks[rdn.lower()] = rank

    def content_digest(self) -> str:
        """SHA-256 over the default rank and every ``(rdn, rank)`` entry.

        Independent of insertion order: two rankings that answer every
        :meth:`rank` query alike share a digest.
        """
        lines = [str(self.default)] + [
            f"{rdn}\t{rank}" for rdn, rank in sorted(self._ranks.items())
        ]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def top(self, count: int) -> list[str]:
        """Return the ``count`` best-ranked domains, best first."""
        ordered = sorted(self._ranks.items(), key=lambda item: item[1])
        return [rdn for rdn, _rank in ordered[:count]]

    @classmethod
    def from_popularity(
        cls,
        domains: Iterable[str],
        default: int = DEFAULT_UNRANKED,
    ) -> "AlexaRanking":
        """Build a ranking from domains ordered most- to least-popular."""
        return cls(list(domains), default=default)
