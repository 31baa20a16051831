"""Public Suffix List rules engine.

Implements the matching algorithm specified at https://publicsuffix.org/list/
over a bundled snapshot of rules (:mod:`repro.urls.suffix_data`):

1. A rule matches a domain when the rule's labels equal the right-most
   labels of the domain (``*`` matches any single label).
2. Exception rules (``!`` prefix) take priority over every other rule.
3. Otherwise the prevailing rule is the matching rule with the most labels.
4. The public suffix is the set of labels matched by the prevailing rule
   (for an exception rule, the rule's labels minus its left-most label).
5. The registered domain is the public suffix plus one additional label.

If no rule matches, the prevailing rule is ``*`` (the top-level label is
treated as the public suffix), as mandated by the specification.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.urls.suffix_data import iter_snapshot_rules


class _Rule:
    """A single parsed PSL rule."""

    __slots__ = ("labels", "is_exception", "is_wildcard")

    def __init__(self, raw: str):
        self.is_exception = raw.startswith("!")
        if self.is_exception:
            raw = raw[1:]
        self.labels = tuple(raw.lower().split("."))
        self.is_wildcard = "*" in self.labels

    def matches(self, domain_labels: tuple[str, ...]) -> bool:
        """Return True when this rule matches the given domain labels."""
        if len(self.labels) > len(domain_labels):
            return False
        for rule_label, domain_label in zip(
            reversed(self.labels), reversed(domain_labels)
        ):
            if rule_label != "*" and rule_label != domain_label:
                return False
        return True

    def suffix_length(self) -> int:
        """Number of labels in the public suffix this rule defines."""
        if self.is_exception:
            return len(self.labels) - 1
        return len(self.labels)


class PublicSuffixList:
    """A queryable set of public-suffix rules.

    Parameters
    ----------
    rules:
        Iterable of raw rule strings.  Defaults to the bundled snapshot.

    Examples
    --------
    >>> psl = PublicSuffixList()
    >>> psl.public_suffix("www.amazon.co.uk")
    'co.uk'
    >>> psl.registered_domain("www.amazon.co.uk")
    'amazon.co.uk'
    >>> psl.registered_domain("foo.www.ck")  # exception rule !www.ck
    'www.ck'
    """

    def __init__(self, rules=None):
        raw_rules = list(rules) if rules is not None else list(iter_snapshot_rules())
        self._rules: list[_Rule] = [_Rule(raw) for raw in raw_rules]
        # Bucket rules by their right-most concrete label for fast lookup.
        self._by_tld: dict[str, list[_Rule]] = {}
        for rule in self._rules:
            tld = rule.labels[-1]
            self._by_tld.setdefault(tld, []).append(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def content_digest(self) -> str:
        """SHA-256 over the rules, in the order they were given."""
        lines = [
            ("!" if rule.is_exception else "") + ".".join(rule.labels)
            for rule in self._rules
        ]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def _prevailing_rule(self, domain_labels: tuple[str, ...]) -> _Rule | None:
        candidates = self._by_tld.get(domain_labels[-1], ())
        matching = [rule for rule in candidates if rule.matches(domain_labels)]
        if not matching:
            return None
        exceptions = [rule for rule in matching if rule.is_exception]
        if exceptions:
            return max(exceptions, key=lambda rule: len(rule.labels))
        return max(matching, key=lambda rule: len(rule.labels))

    def public_suffix(self, fqdn: str) -> str:
        """Return the public suffix of ``fqdn``.

        Falls back to the last label when no rule matches (the ``*``
        implicit rule of the specification).
        """
        labels = _normalize(fqdn)
        if not labels:
            return ""
        rule = self._prevailing_rule(labels)
        length = rule.suffix_length() if rule is not None else 1
        length = min(length, len(labels))
        return ".".join(labels[len(labels) - length:])

    def registered_domain(self, fqdn: str) -> str | None:
        """Return the RDN of ``fqdn`` (public suffix plus one label).

        Returns ``None`` when the whole FQDN is itself a public suffix,
        i.e. there is no registrable label to the left of the suffix.
        """
        labels = _normalize(fqdn)
        if not labels:
            return None
        suffix = self.public_suffix(fqdn)
        suffix_len = len(suffix.split(".")) if suffix else 0
        if suffix_len >= len(labels):
            return None
        return ".".join(labels[len(labels) - suffix_len - 1:])

    def is_public_suffix(self, fqdn: str) -> bool:
        """True when ``fqdn`` exactly equals a public suffix."""
        labels = _normalize(fqdn)
        return bool(labels) and ".".join(labels) == self.public_suffix(fqdn)

    def split(self, fqdn: str) -> tuple[str, str, str]:
        """Split ``fqdn`` into ``(subdomains, mld, public_suffix)``.

        ``subdomains`` and either remaining part may be empty strings when
        the corresponding component is absent.
        """
        labels = _normalize(fqdn)
        if not labels:
            return "", "", ""
        suffix = self.public_suffix(fqdn)
        suffix_len = len(suffix.split(".")) if suffix else 0
        remainder = labels[: len(labels) - suffix_len]
        if not remainder:
            return "", "", suffix
        mld = remainder[-1]
        subdomains = ".".join(remainder[:-1])
        return subdomains, mld, suffix


def _normalize(fqdn: str) -> tuple[str, ...]:
    """Lower-case and split an FQDN into labels, dropping empty labels."""
    fqdn = fqdn.strip().strip(".").lower()
    if not fqdn:
        return ()
    return tuple(label for label in fqdn.split(".") if label)


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """Return the process-wide :class:`PublicSuffixList` built from the snapshot."""
    return PublicSuffixList()
