"""Tier-0 triage: URL-only verdicts for the obvious majority.

PhishDef [Le et al.] and "Detecting Phishing sites Without Visiting
them" show URL-only lexical models are accurate enough to
short-circuit the obvious cases — so the serving ladder's first tier
scores the *URL alone* (no page load, no snapshot) and resolves it
immediately when the score clears a calibrated two-sided band:

* ``score >= phish_threshold`` — confident phish, blocked at tier 0;
* ``score <= legit_threshold`` — confident legitimate, cleared at
  tier 0;
* anything between — **escalate** to the full 212-feature +
  target-identification pipeline, whose path (and verdicts) stay
  byte-identical to an untriaged engine.

The thresholds come from
:func:`repro.ml.calibration.two_sided_thresholds` on validation data,
so both confident regions carry explicit error budgets.  The model is
a plain picklable object (numpy weights + two floats): it ships to
worker processes and serialises into model registries as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.url_lexical import UrlLexicalClassifier
from repro.ml.calibration import two_sided_thresholds

#: Tier-0 decisions (the ``action`` label on ``serve_triage_total``).
TRIAGE_PHISH = "phish"
TRIAGE_LEGITIMATE = "legitimate"
TRIAGE_ESCALATE = "escalate"


@dataclass(frozen=True)
class TriageDecision:
    """One URL's tier-0 outcome: an action plus the raw score."""

    action: str
    score: float

    @property
    def resolved(self) -> bool:
        """True when tier 0 answered without the full pipeline."""
        return self.action != TRIAGE_ESCALATE


class TriageModel:
    """A servable URL-only pre-filter with calibrated thresholds.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.baselines.url_lexical.UrlLexicalClassifier`
        (any object with ``predict_proba_urls``).
    legit_threshold / phish_threshold:
        The calibrated confident-legitimate / confident-phish score
        cuts; scores strictly between them escalate.
    """

    def __init__(
        self,
        classifier: UrlLexicalClassifier,
        legit_threshold: float,
        phish_threshold: float,
    ):
        if not 0.0 <= legit_threshold <= 1.0:
            raise ValueError(
                f"legit_threshold must be in [0, 1], got {legit_threshold}"
            )
        if not 0.0 <= phish_threshold <= 1.0:
            raise ValueError(
                f"phish_threshold must be in [0, 1], got {phish_threshold}"
            )
        if legit_threshold > phish_threshold:
            raise ValueError(
                f"legit_threshold {legit_threshold} must not exceed "
                f"phish_threshold {phish_threshold}"
            )
        self.classifier = classifier
        self.legit_threshold = legit_threshold
        self.phish_threshold = phish_threshold

    @classmethod
    def calibrate(
        cls,
        classifier: UrlLexicalClassifier,
        urls,
        labels,
        max_fpr: float = 0.0,
        max_fnr: float = 0.0,
    ) -> "TriageModel":
        """Fit the two-sided band on validation URLs and labels.

        ``max_fpr`` bounds the share of validation legitimates the
        confident-phish region may swallow; ``max_fnr`` bounds the
        share of validation phish the confident-legitimate region may
        clear.  Both default to zero — tier 0 only answers where the
        validation data is perfectly separated.
        """
        scores = classifier.predict_proba_urls(urls)
        legit, phish = two_sided_thresholds(
            labels, scores, max_fpr=max_fpr, max_fnr=max_fnr
        )
        return cls(classifier, legit, phish)

    def _action(self, score: float) -> str:
        if score >= self.phish_threshold:
            return TRIAGE_PHISH
        if score <= self.legit_threshold:
            return TRIAGE_LEGITIMATE
        return TRIAGE_ESCALATE

    def decide(self, url: str) -> TriageDecision:
        """Tier-0 decision for one URL."""
        return self.decide_batch([url])[0]

    def decide_batch(self, urls) -> list[TriageDecision]:
        """Tier-0 decisions for a URL batch in one vectorised pass.

        The batch contract: ``decide_batch(urls)[i] == decide(urls[i])``
        bit for bit, whatever else shares the batch, because the
        classifier scores every row as a one-URL call would.  The
        serving engine relies on it to score each run's URLs at once,
        and calibration relies on it to set thresholds on the very
        scores the engine serves.
        """
        scores = self.classifier.predict_proba_urls(urls)
        return [
            TriageDecision(action=self._action(float(score)),
                           score=float(score))
            for score in scores
        ]

    def escalation_rate(self, urls) -> float:
        """Share of ``urls`` tier 0 would pass to the full pipeline."""
        urls = list(urls)
        if not urls:
            return 0.0
        decisions = self.decide_batch(urls)
        escalated = sum(
            1 for decision in decisions if not decision.resolved
        )
        return escalated / len(urls)
