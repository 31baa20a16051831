"""Ma et al.-style baseline: URL-lexical bag-of-words + linear model.

"Beyond Blacklists" [Ma, Saul, Savage, Voelker — KDD'09] classifies URLs
from lexical tokens alone (hostname and path tokens as sparse binary
features) with an online linear learner.  We reproduce the lexical part
with feature hashing into a fixed-width vector plus a handful of the
numeric URL statistics they report, trained by logistic regression.

Only the URL is consulted — no page content — which is why this family
cannot model term-usage consistency.  That same property makes it the
serving tier's **triage** model (see :mod:`repro.serve.triage`): it
scores a URL before any page load.  A one-URL call costs ~0.3 ms on a
2-core Xeon, mostly fixed numpy overhead, against ~70 µs per URL in a
50-URL batch, so the serving engine scores each run's unique URLs in
one batch.  Featurisation is *vectorised*: token
hashing runs as a table-driven CRC32 over a padded byte matrix —
bit-identical to the per-token ``zlib.crc32`` loop (pinned by a
differential test) but computed for every unique token of a batch at
once.  Scoring is *row-exact*: each row's probability is computed as a
one-URL call computes it, so a URL's score never depends on the other
URLs in its batch (an N-row BLAS product sums in another order).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.ml.linear import LogisticRegression
from repro.urls.parsing import ParsedUrl, UrlParseError, parse_url
from repro.web.page import PageSnapshot


def _crc32_table() -> np.ndarray:
    """The 256-entry lookup table of the CRC-32 used by ``zlib.crc32``."""
    table = np.arange(256, dtype=np.uint32)
    polynomial = np.uint32(0xEDB88320)
    for _ in range(8):
        table = np.where(
            (table & np.uint32(1)).astype(bool),
            polynomial ^ (table >> np.uint32(1)),
            table >> np.uint32(1),
        ).astype(np.uint32)
    return table


_CRC32_TABLE = _crc32_table()


def crc32_batch(tokens: list[bytes]) -> np.ndarray:
    """``zlib.crc32`` of every token, vectorised across the batch.

    Builds one padded ``uint8`` matrix (token x byte position) and runs
    the table-driven CRC recurrence column by column, masked by token
    length — a loop over the *longest token's* bytes, not over tokens.
    Bit-identical to ``zlib.crc32(token)`` for every token.
    """
    if not tokens:
        return np.zeros(0, dtype=np.uint32)
    lengths = np.fromiter(
        (len(token) for token in tokens), dtype=np.int64, count=len(tokens)
    )
    width = int(lengths.max()) if len(lengths) else 0
    crc = np.full(len(tokens), 0xFFFFFFFF, dtype=np.uint32)
    if width:
        matrix = np.zeros((len(tokens), width), dtype=np.uint8)
        blob = np.frombuffer(b"".join(tokens), dtype=np.uint8)
        rows = np.repeat(np.arange(len(tokens)), lengths)
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        matrix[rows, np.arange(len(blob)) - offsets] = blob
        for column in range(width):
            active = lengths > column
            crc[active] = (
                _CRC32_TABLE[
                    (crc[active] ^ matrix[active, column]) & np.uint32(0xFF)
                ]
                ^ (crc[active] >> np.uint32(8))
            )
    return crc ^ np.uint32(0xFFFFFFFF)


class UrlLexicalClassifier:
    """Hashed URL-token features + logistic regression.

    Parameters
    ----------
    n_hash_features:
        Width of the hashed bag-of-words vector.
    threshold:
        Decision threshold on the predicted probability.
    """

    def __init__(
        self,
        n_hash_features: int = 1024,
        threshold: float = 0.5,
        epochs: int = 40,
        random_state: int | None = 0,
    ):
        self.n_hash_features = n_hash_features
        self.threshold = threshold
        self.model = LogisticRegression(
            epochs=epochs, random_state=random_state
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _parse(url: str) -> ParsedUrl | None:
        """The parsed URL, or ``None`` when it does not parse."""
        try:
            return parse_url(url)
        except UrlParseError:
            return None

    @staticmethod
    def _tokens(parsed: ParsedUrl | None) -> list[str]:
        """Lexical tokens: hostname labels plus path/query fragments."""
        if parsed is None:
            return ["<unparsable>"]
        tokens = parsed.fqdn.split(".")
        for part in (parsed.path, parsed.query):
            for separator in "/?.=&-_":
                part = part.replace(separator, " ")
            tokens.extend(token for token in part.split() if token)
        return tokens

    @staticmethod
    def _numeric_tail(
        url: str, parsed: ParsedUrl | None, vector: np.ndarray
    ) -> None:
        """Fill the four trailing numeric URL statistics in place."""
        if parsed is None:
            return
        vector[-4] = len(url) / 100.0
        vector[-3] = parsed.level_domain_count
        vector[-2] = url.count(".") / 10.0
        vector[-1] = 1.0 if parsed.is_ip else 0.0

    def featurize_url(self, url: str) -> np.ndarray:
        """The hashed feature vector of one URL (reference path)."""
        vector = np.zeros(self.n_hash_features + 4)
        parsed = self._parse(url)
        for token in self._tokens(parsed):
            index = zlib.crc32(token.encode()) % self.n_hash_features
            vector[index] = 1.0
        self._numeric_tail(url, parsed, vector)
        return vector

    def featurize_urls(self, urls) -> np.ndarray:
        """Feature matrix of a URL batch, one vectorised hashing pass.

        Tokenisation stays per URL (it needs the URL parser, run once
        per URL for both the tokens and the numeric tail), but
        hashing — the per-token hot loop — runs once over the batch's
        *unique* tokens via :func:`crc32_batch`, and the binary
        indicators scatter into the matrix with one fancy-indexed
        store.  Output is bit-identical to stacking
        :meth:`featurize_url` row by row.
        """
        urls = list(urls)
        matrix = np.zeros((len(urls), self.n_hash_features + 4))
        if not urls:
            return matrix
        parsed = [self._parse(url) for url in urls]
        token_ids: dict[str, int] = {}
        rows: list[int] = []
        columns: list[int] = []
        for row, parsed_url in enumerate(parsed):
            for token in self._tokens(parsed_url):
                slot = token_ids.setdefault(token, len(token_ids))
                rows.append(row)
                columns.append(slot)
        hashes = crc32_batch(
            [token.encode() for token in token_ids]
        ) % np.uint32(self.n_hash_features)
        matrix[
            np.asarray(rows, dtype=np.int64),
            hashes[np.asarray(columns, dtype=np.int64)],
        ] = 1.0
        for row, (url, parsed_url) in enumerate(zip(urls, parsed)):
            self._numeric_tail(url, parsed_url, matrix[row])
        return matrix

    def featurize_snapshot(self, snapshot: PageSnapshot) -> np.ndarray:
        """Features of a page = features of its starting URL."""
        return self.featurize_url(snapshot.starting_url)

    # ------------------------------------------------------------------
    def fit_urls(self, urls, labels) -> "UrlLexicalClassifier":
        """Train on raw URLs — no page snapshots required."""
        X = self.featurize_urls(urls)
        self.model.fit(X, np.asarray(labels))
        return self

    def predict_proba_urls(self, urls) -> np.ndarray:
        """Phishing probability per URL, independent of its batch.

        The batch is featurised in one vectorised pass, but each row is
        scored as a one-URL call scores it: a ``(1, d)`` product and a
        one-element sigmoid.  An N-row ``X @ w`` lets BLAS sum in a
        different order than a 1-row one, moving scores by an ulp with
        the batch's size; scoring row by row makes ``score(url)`` the
        same value whichever batch carries the URL.
        """
        X = self.featurize_urls(urls)
        return np.array(
            [self.model.predict_proba(X[row:row + 1])[0]
             for row in range(len(X))],
            dtype=np.float64,
        )

    def predict_urls(self, urls) -> np.ndarray:
        """Hard 0/1 predictions per URL."""
        return (self.predict_proba_urls(urls) >= self.threshold).astype(
            np.int64
        )

    def score_url(self, url: str) -> float:
        """Phishing probability of a single URL."""
        return float(self.predict_proba_urls([url])[0])

    # ------------------------------------------------------------------
    def fit_snapshots(self, snapshots, labels) -> "UrlLexicalClassifier":
        """Train on page snapshots (their starting URLs)."""
        return self.fit_urls(
            [snapshot.starting_url for snapshot in snapshots], labels
        )

    def predict_proba_snapshots(self, snapshots) -> np.ndarray:
        """Phishing probability per snapshot."""
        return self.predict_proba_urls(
            [snapshot.starting_url for snapshot in snapshots]
        )

    def predict_snapshots(self, snapshots) -> np.ndarray:
        """Hard 0/1 predictions per snapshot."""
        return (
            self.predict_proba_snapshots(snapshots) >= self.threshold
        ).astype(np.int64)
