"""Vectorized charger pricing — the tariff table behind the array engine.

The array-native CCSGA engine (:mod:`repro.game.arraycore`) evaluates
every (device, coalition) candidate move of a scan at once, which needs
session prices for a whole *vector* of hypothetical total demands spread
across heterogeneous chargers.  :class:`ChargerPriceTable` packs the
per-charger tariff parameters into flat arrays once and answers such
queries with a handful of numpy ops.  The service plan prices each new
device through the same table: one singleton-price row per device
(:meth:`ChargerPriceTable.singleton_price_row`), or one matrix for a
whole snapshot's devices (:meth:`ChargerPriceTable.singleton_price_matrix`).

**Bit-identity contract.**  Every price this table produces must be
bitwise equal to the scalar path
(``instance.charging_price_for_demand`` →
:meth:`repro.wpt.charger.Charger.price_for_stored` →
:meth:`repro.wpt.pricing._TariffBase.session_price`).  Power-law and
linear tariffs take a closed-form fast path (``base + unit *
np.power(E, exponent)`` — numpy's pow, the same implementation the
scalar path routes through, with linear tariffs folded in as exponent
1.0 since ``np.power(E, 1.0)`` is bitwise ``E``); any other tariff is
evaluated per charger through its ``session_price_vector`` /
``session_price`` methods, which replicate the scalar arithmetic
exactly.

**Scalar-exponent rule.**  ``np.power`` is bitwise consistent with the
scalar path only when its exponent is a *scalar*: numpy routes an array
of exponents through a different kernel, which at exponent 0.5 rounds
a few percent of results differently from ``np.power(E, 0.5)``.  The table
therefore groups the closed-form chargers by distinct exponent and calls
``np.power`` once per group with that exponent as a Python float — never
with a per-element exponent array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..numeric import EXACT_ZERO
from .charger import Charger
from .pricing import LinearTariff, PowerLawTariff

__all__ = ["ChargerPriceTable"]


class ChargerPriceTable:
    """Flat per-charger tariff parameters for vectorized session pricing."""

    def __init__(self, chargers: Sequence[Charger]):
        self.chargers = tuple(chargers)
        m = len(self.chargers)
        self._efficiency = np.array([c.efficiency for c in self.chargers], dtype=float)
        self._base = np.zeros(m, dtype=float)
        self._unit = np.zeros(m, dtype=float)
        columns: Dict[float, List[int]] = {}
        #: Chargers whose tariff has no closed form (priced per charger).
        self._fallback: List[int] = []
        for j, charger in enumerate(self.chargers):
            tariff = charger.tariff
            if type(tariff) is PowerLawTariff:
                exponent = float(tariff.exponent)
            elif type(tariff) is LinearTariff:
                exponent = 1.0
            else:
                self._fallback.append(j)
                continue
            self._base[j] = tariff.base
            self._unit[j] = tariff.unit
            columns.setdefault(exponent, []).append(j)
        #: ``(exponent, charger columns)`` per distinct closed-form exponent.
        self._groups: List[Tuple[float, np.ndarray]] = [
            (exponent, np.array(cols, dtype=np.int64))
            for exponent, cols in sorted(columns.items())
        ]
        #: Charger index -> position in ``_groups`` (-1: fallback tariff).
        self._group_of = np.full(m, -1, dtype=np.int64)
        for k, (_exponent, cols) in enumerate(self._groups):
            self._group_of[cols] = k
        #: The one exponent when every charger shares it (the common case).
        self._uniform: Optional[float] = (
            self._groups[0][0]
            if len(self._groups) == 1 and not self._fallback
            else None
        )
        #: Per charger ``(base, unit, exponent)`` as Python floats, or
        #: ``None`` for a fallback tariff (:meth:`charger_prices`).
        self._closed_form: List[Optional[Tuple[float, float, float]]] = [None] * m
        for exponent, cols in self._groups:
            for j in cols.tolist():
                self._closed_form[j] = (
                    float(self._base[j]), float(self._unit[j]), exponent
                )

    def prices(self, totals: np.ndarray, chargers_idx: np.ndarray) -> np.ndarray:
        """Session prices for summed stored demands at per-element chargers.

        ``prices(t, c)[k]`` equals
        ``instance.charging_price_for_demand(float(t[k]), int(c[k]))``
        bitwise, including the exact-zero free-session guard.
        """
        totals = np.asarray(totals, dtype=float)
        chargers_idx = np.asarray(chargers_idx, dtype=np.int64)
        # One reduction settles both guards in the common all-positive case.
        positive = np.count_nonzero(totals > EXACT_ZERO) == totals.size
        if not positive and np.count_nonzero(totals < 0):
            raise ValueError("demands must be nonnegative")
        emitted = totals / self._efficiency[chargers_idx]
        if self._uniform is not None:
            out = self._base[chargers_idx] + self._unit[chargers_idx] * np.power(
                emitted, self._uniform
            )
        else:
            out = np.empty_like(totals)
            group = self._group_of[chargers_idx]
            for k, (exponent, _cols) in enumerate(self._groups):
                sel = group == k
                if sel.any():
                    sub = chargers_idx[sel]
                    out[sel] = self._base[sub] + self._unit[sub] * np.power(
                        emitted[sel], exponent
                    )
            for j in np.unique(chargers_idx[group < 0]):
                mask = chargers_idx == int(j)
                out[mask] = self._prices_one_charger(int(j), emitted[mask])
        if not positive:
            out[totals == EXACT_ZERO] = 0.0
        return out

    def charger_prices(self, totals: np.ndarray, charger: int) -> np.ndarray:
        """Session prices at one charger for strictly positive *totals*.

        Bitwise ``prices(totals, [charger] * len(totals))`` with neither
        gathers nor guards: one division, then ``base + unit *
        np.power(E, exponent)`` (same operands, same order) or the
        charger's fallback.  The planner's batched insert rescores one
        coalition per placement through it; its totals always include a
        device's (strictly positive) demand, so the exact-zero guard
        cannot apply.
        """
        emitted = totals / self._efficiency[charger]
        form = self._closed_form[charger]
        if form is None:
            return self._prices_one_charger(charger, emitted)
        base, unit, exponent = form
        return base + unit * np.power(emitted, exponent)

    def _prices_one_charger(self, charger: int, emitted: np.ndarray) -> np.ndarray:
        """Generic-tariff fallback: one charger, a vector of emitted energies."""
        tariff = self.chargers[charger].tariff
        vector = getattr(tariff, "session_price_vector", None)
        if vector is not None:
            return np.asarray(vector(emitted), dtype=float)
        return np.array([tariff.session_price(float(e)) for e in emitted], dtype=float)

    def _singleton_prices(self, emitted: np.ndarray) -> np.ndarray:
        """Overwrite *emitted* (chargers on the last axis) with its prices.

        One ``np.power`` call per distinct exponent (scalar exponent), one
        fallback evaluation per non-closed-form charger; the caller applies
        the exact-zero guard.  In place, so a snapshot's whole matrix costs
        no extra ``(n, m)`` temporaries: ``pow * unit + base`` in place is
        bitwise ``base + unit * pow`` (IEEE products and sums commute).
        """
        if self._uniform is not None:
            np.power(emitted, self._uniform, out=emitted)
            emitted *= self._unit
            emitted += self._base
            return emitted
        # Each charger's column is read before it is written, and the
        # groups' columns are disjoint.
        for exponent, cols in self._groups:
            emitted[..., cols] = self._base[cols] + self._unit[cols] * np.power(
                emitted[..., cols], exponent
            )
        for j in self._fallback:
            column = emitted[..., j]
            emitted[..., j] = self._prices_one_charger(
                j, column.reshape(-1)
            ).reshape(column.shape)
        return emitted

    def singleton_price_row(self, demand: float) -> np.ndarray:
        """``(m,)`` singleton prices of one device: charging alone at each charger.

        The lean one-device path behind the admission quote: scalar
        validation, one division over the chargers and one ``np.power``
        per distinct exponent.  Entry ``j`` is bitwise equal to
        ``chargers[j].price_for_stored(demand)``.
        """
        if demand < 0:
            raise ValueError("demands must be nonnegative")
        out = self._singleton_prices(demand / self._efficiency)
        if demand == EXACT_ZERO:
            out[:] = 0.0
        return out

    def singleton_price_matrix(self, demands: np.ndarray) -> np.ndarray:
        """``(n, m)`` singleton prices: device *i* charging alone at charger *j*.

        Row ``i`` is bitwise equal to :meth:`singleton_price_row` of
        ``demands[i]``, and so to ``chargers[j].price_for_stored(d)``.
        """
        demands = np.asarray(demands, dtype=float)
        if np.any(demands < 0):
            raise ValueError("demands must be nonnegative")
        out = self._singleton_prices(demands[:, None] / self._efficiency)
        zero = demands == EXACT_ZERO
        if zero.any():
            out[zero] = 0.0
        return out
