"""Cross-epoch privacy-budget accounting for the streaming service.

Each flush the server observes is one ``(eps, delta)``-DP release of the
same users' data, so a continuously running deployment degrades over time
by DP composition.  :class:`PrivacyAccountant` holds the deployment's
lifetime budget and is consulted *before* every flush: a flush whose
charge would push the composed spend past the budget raises
:class:`BudgetExceededError` and must not be released (the pipeline drops
the batch — refusing release is the only safe response once the budget is
gone).

Accounting builds on :mod:`repro.core.composition`:

* ``method="basic"`` — sequential composition, ``eps_total = sum(eps_i)``,
  ``delta_total = sum(delta_i)`` (what the paper's evaluation uses);
* ``method="advanced"`` — the Dwork-Rothblum-Vadhan bound.  For
  homogeneous charges this is exactly
  :func:`repro.core.composition.advanced_composition_total`; the
  heterogeneous generalization used here is
  ``eps_total = sqrt(2 ln(1/delta') sum(eps_i^2))
  + sum(eps_i (e^{eps_i} - 1))`` with slack ``delta' =
  slack_fraction * delta_budget`` reserved up front.  The accountant
  always reports ``min(basic, advanced)`` — both are valid bounds.

:meth:`PrivacyAccountant.for_flushes` inverts the direction: given a
budget and a planned number of flushes, it uses
:func:`repro.core.composition.split_budget` to suggest the per-flush
allowance.

The ledger is kept as exact running sums, not as a list of charges, so
every call costs O(1) in the number of charges admitted so far.  Each
sum is a tuple of Shewchuk partials (Shewchuk, "Adaptive Precision
Floating-Point Arithmetic", 1997): non-overlapping floats whose exact
sum is the exact sum of every term added, the expansion ``math.fsum``
builds over its input.  ``math.fsum`` is correctly rounded, so ``fsum``
of the partials is the very float ``fsum`` of the whole charge history
would return.  The store's ``charges`` table, not this object, keeps
the charges and their labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from ..core.composition import BudgetSplit, advanced_composition_total, split_budget

#: relative slack absorbing float round-off when a budget is an exact
#: multiple of the per-flush charge
_REL_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """A flush was refused because it would overrun the privacy budget."""

    def __init__(
        self,
        message: str,
        *,
        requested_eps: float,
        requested_delta: float,
        spent_eps: float,
        spent_delta: float,
    ):
        super().__init__(message)
        self.requested_eps = requested_eps
        self.requested_delta = requested_delta
        self.spent_eps = spent_eps
        self.spent_delta = spent_delta


@dataclass(frozen=True)
class BudgetCharge:
    """One admitted flush charge."""

    eps: float
    delta: float
    label: str


def _grow(partials: list, term: float) -> None:
    """Add ``term`` to ``partials`` in place, keeping the sum exact.

    Shewchuk's grow-expansion, the loop ``math.fsum`` runs over its
    input: every step splits ``x + y`` into its rounded sum ``hi`` and
    the exact rounding error ``lo``, so nothing is lost, and the
    partials stay sorted by magnitude with at most one per ~53 bits of
    exponent range.  Every term here is non-negative, so an infinite
    term (advanced composition's ``eps (e^eps - 1)`` past ``eps ~ 709``)
    makes the sum ``+inf`` for good, as ``fsum`` would report it.
    """
    if math.isinf(term) or (partials and math.isinf(partials[-1])):
        partials[:] = [math.inf]
        return
    i = 0
    x = term
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _Ledger(NamedTuple):
    """The admitted ledger as one immutable value: running sums and spend.

    Each sum is a tuple of Shewchuk partials (see :func:`_grow`).  The
    two advanced-composition sums stay empty under basic composition.
    """

    n_charges: int
    #: the first charge's eps, and whether every charge so far equals it
    #: (advanced composition's homogeneous branch)
    first_eps: float
    homogeneous: bool
    eps: tuple
    delta: tuple
    #: sum(eps_i^2) and sum(eps_i (e^eps_i - 1))
    eps_sq: tuple
    eps_exp: tuple
    #: composed ``(eps, delta)`` of the sums above
    spent: Tuple[float, float]


_EMPTY_LEDGER = _Ledger(0, 0.0, True, (), (), (), (), (0.0, 0.0))


class PrivacyAccountant:
    """Lifetime ``(eps, delta)`` ledger over a stream of flush charges.

    One thread charges; any thread may read.  Every admitted charge is
    published by rebinding the single ``_ledger`` attribute to a new
    immutable :class:`_Ledger`, so a reader on another thread (the
    server's ``/api/health`` reads :meth:`remaining_eps` on its event
    loop while the ingest thread charges) sees the sums and the spend of
    one and the same charge count, without a lock.
    """

    def __init__(
        self,
        eps_budget: float,
        delta_budget: float,
        method: str = "basic",
        slack_fraction: float = 0.5,
    ):
        if eps_budget <= 0.0:
            raise ValueError(f"eps budget must be positive, got {eps_budget}")
        if not 0.0 < delta_budget < 1.0:
            raise ValueError(f"delta budget must be in (0, 1), got {delta_budget}")
        if method not in ("basic", "advanced"):
            raise ValueError(f"unknown composition method: {method!r}")
        if not 0.0 < slack_fraction < 1.0:
            raise ValueError(f"slack fraction must be in (0, 1), got {slack_fraction}")
        self.eps_budget = float(eps_budget)
        self.delta_budget = float(delta_budget)
        self.method = method
        self.slack_fraction = float(slack_fraction)
        self._ledger = _EMPTY_LEDGER

    @classmethod
    def for_flushes(
        cls,
        eps_budget: float,
        delta_budget: float,
        flushes: int,
        method: str = "basic",
    ) -> Tuple["PrivacyAccountant", BudgetSplit]:
        """Accountant plus the per-flush allowance for ``flushes`` releases."""
        split = split_budget(eps_budget, delta_budget, flushes, method=method)
        return cls(eps_budget, delta_budget, method=method), split

    # -- ledger state ------------------------------------------------------

    @property
    def n_charges(self) -> int:
        return self._ledger.n_charges

    def spent(self) -> Tuple[float, float]:
        """Composed ``(eps, delta)`` of every admitted charge."""
        return self._ledger.spent

    def remaining_eps(self) -> float:
        return max(0.0, self.eps_budget - self.spent()[0])

    def _extend(self, ledger: _Ledger, charges) -> _Ledger:
        """``ledger`` with ``charges`` (float ``(eps, delta)`` pairs)
        added, composed once at the end; ``ledger`` itself is unchanged."""
        n_charges, first_eps = ledger.n_charges, ledger.first_eps
        homogeneous = ledger.homogeneous
        eps_sum, delta_sum = list(ledger.eps), list(ledger.delta)
        eps_sq, eps_exp = list(ledger.eps_sq), list(ledger.eps_exp)
        advanced = self.method == "advanced"
        for eps, delta in charges:
            if not n_charges:
                first_eps = eps
            n_charges += 1
            homogeneous = homogeneous and eps == first_eps
            _grow(eps_sum, eps)
            _grow(delta_sum, delta)
            if advanced:
                _grow(eps_sq, eps * eps)
                _grow(eps_exp, eps * (math.exp(eps) - 1.0))
        extended = _Ledger(
            n_charges,
            first_eps,
            homogeneous,
            tuple(eps_sum),
            tuple(delta_sum),
            tuple(eps_sq),
            tuple(eps_exp),
            ledger.spent,
        )
        return extended._replace(spent=self._compose(extended))

    def _compose(self, ledger: _Ledger) -> Tuple[float, float]:
        if not ledger.n_charges:
            return 0.0, 0.0
        basic_eps = math.fsum(ledger.eps)
        basic_delta = math.fsum(ledger.delta)
        if self.method == "basic":
            return basic_eps, basic_delta
        delta_slack = self.slack_fraction * self.delta_budget
        if ledger.homogeneous:
            advanced = advanced_composition_total(
                ledger.first_eps, ledger.n_charges, delta_slack
            )
        else:
            advanced = math.sqrt(
                2.0 * math.log(1.0 / delta_slack) * math.fsum(ledger.eps_sq)
            ) + math.fsum(ledger.eps_exp)
        # Both (basic_eps, basic_delta) and (advanced, basic_delta + slack)
        # are valid bounds; report the one with the smaller eps among those
        # whose delta still fits the budget, so reserving the slack never
        # refuses a flush the basic bound would admit.
        pairs = [(basic_eps, basic_delta), (advanced, basic_delta + delta_slack)]
        fitting = [
            pair
            for pair in pairs
            if pair[1] <= self.delta_budget * (1.0 + _REL_TOL)
        ]
        return min(fitting or pairs, key=lambda pair: pair[0])

    def _fits(self, spent: Tuple[float, float]) -> bool:
        total_eps, total_delta = spent
        return (
            total_eps <= self.eps_budget * (1.0 + _REL_TOL)
            and total_delta <= self.delta_budget * (1.0 + _REL_TOL)
        )

    # -- recovery ----------------------------------------------------------

    def restore(self, charges) -> None:
        """Adopt a persisted ledger into a fresh accountant.

        ``charges`` is any iterable of objects with ``eps`` and ``delta``
        (the store's :class:`BudgetCharge` rows, in charge order); it is
        read once, in O(len(charges)), and nothing of it is kept but the
        running sums.  Validates what it adopts: every charge must be
        individually legal and the composed total must fit this
        accountant's budget (within the same ``_REL_TOL`` slack
        :meth:`admits` grants), so a ledger from a different — larger —
        deployment budget cannot smuggle in spend the ledger would never
        have admitted.  Nothing is adopted unless all of it passes.
        Refuses to run on a non-empty ledger: restore rebuilds state, it
        does not merge it.  The sums are the ones the same charges made
        one by one, so a round trip preserves ``spent()`` bit for bit.
        """
        if self.n_charges:
            raise ValueError(
                f"cannot restore into a ledger holding {self.n_charges} "
                f"charges; restore only a fresh accountant"
            )
        ledger = self._extend(_EMPTY_LEDGER, self._validated(charges))
        if not self._fits(ledger.spent):
            total_eps, total_delta = ledger.spent
            raise ValueError(
                f"snapshot spends (eps={total_eps:.4g}, "
                f"delta={total_delta:.3g}), exceeding the budget "
                f"(eps={self.eps_budget:.4g}, delta={self.delta_budget:.3g})"
            )
        self._ledger = ledger

    # -- charging ----------------------------------------------------------

    def admits(self, eps: float, delta: float = 0.0) -> bool:
        """Would a ``(eps, delta)`` charge fit in the remaining budget?"""
        return self._fits(self._tentative(eps, delta).spent)

    def charge(self, eps: float, delta: float = 0.0, label: str = "flush") -> BudgetCharge:
        """Record a flush charge, or raise :class:`BudgetExceededError`.

        A refused charge leaves the ledger untouched: the caller must drop
        the flush (its reports are never released).
        """
        ledger = self._tentative(eps, delta)
        if not self._fits(ledger.spent):
            spent_eps, spent_delta = self.spent()
            raise BudgetExceededError(
                f"flush {label!r} charging (eps={eps:.4g}, delta={delta:.3g}) "
                f"would exceed the budget (eps={self.eps_budget:.4g}, "
                f"delta={self.delta_budget:.3g}); already spent "
                f"(eps={spent_eps:.4g}, delta={spent_delta:.3g}) "
                f"over {self.n_charges} flushes",
                requested_eps=eps,
                requested_delta=delta,
                spent_eps=spent_eps,
                spent_delta=spent_delta,
            )
        self._ledger = ledger
        return BudgetCharge(float(eps), float(delta), label)

    def _tentative(self, eps: float, delta: float) -> _Ledger:
        """The ledger as it would stand after this charge (unpublished)."""
        self._validate_charge(eps, delta)
        return self._extend(self._ledger, [(float(eps), float(delta))])

    def _validated(self, charges):
        """``(eps, delta)`` floats of each stored charge, checked first."""
        for charge in charges:
            eps, delta = float(charge.eps), float(charge.delta)
            self._validate_charge(eps, delta)
            yield eps, delta

    @staticmethod
    def _validate_charge(eps: float, delta: float) -> None:
        if eps <= 0.0:
            raise ValueError(f"charge eps must be positive, got {eps}")
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"charge delta must be in [0, 1), got {delta}")
