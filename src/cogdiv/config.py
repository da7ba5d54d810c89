"""Static network parameters for the underlay spectrum-sharing scenario."""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Inconsistent or out-of-range network parameters."""


def as_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int; ConfigError unless it is a whole number in
    [low, high], either bound None for none."""
    try:
        n = int(value) if float(value).is_integer() else None
    except OverflowError:   # an int beyond the float range
        n = int(value)
    except (TypeError, ValueError):
        n = None
    if n is None:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if (low is not None and n < low) or (high is not None and n > high):
        span = f"at least {low}" if high is None else f"in [{low}, {high}]"
        # str(n) raises beyond 4300 digits, so longer ints are shown by their size.
        got = n if n.bit_length() < 8192 else f"an integer of {n.bit_length()} bits"
        raise ConfigError(f"{name} must be {span}, got {got}")
    return n


def as_population(value, low: int = 1) -> int:
    """``value`` as an int population size of at least ``low``; ConfigError
    unless its float is finite too, as the analysis's float arithmetic needs."""
    big_n = as_int("population size", value, low)
    try:
        float(big_n)
    except OverflowError:
        raise ConfigError(f"a population size of {big_n.bit_length()} bits is beyond "
                          "the float range") from None
    return big_n


def as_real(name: str, value) -> float:
    """``value`` as a float; ConfigError naming ``name`` unless it is one number."""
    return float(_filled(name, value, ()))


def power_from_db(name: str, db: float) -> float:
    """Linear power ratio 10^(db/10); ConfigError naming ``name`` unless it
    is strictly positive and finite (not overflowing, underflowing or NaN)."""
    try:
        power = 10.0 ** (db / 10.0)
    except OverflowError:
        power = math.inf
    if not 0 < power < math.inf:
        raise ConfigError(f"{name} = {db!r} dB gives no strictly positive and finite power")
    return power


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _filled(name: str, values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as a read-only float array of ``shape`` (any shape if None);
    one value fills it."""
    try:
        if values is None:   # np.array(None, dtype=float) is NaN
            raise TypeError
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        sequence = shape != () and isinstance(values, (list, tuple))
        rows = ", in rows of equal length" if sequence else ""
        raise ConfigError(f"{name} must be numbers{rows}") from None
    if shape is not None and arr.size == 1 and arr.shape != shape:
        try:
            arr = np.full(shape, arr.item())
        except (ValueError, OverflowError):   # more elements or bytes than numpy can index
            raise ConfigError(f"{name} of shape {shape} is beyond numpy's index range") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{name} needs 1 value or shape {shape}, got shape {arr.shape}")
    return _frozen(arr)


def _cycled(name: str, arr: np.ndarray, rows: int) -> np.ndarray:
    """A read-only array of ``rows`` rows, the rows of ``arr`` repeated in
    turn: ``np.resize(arr, (rows,) + arr.shape[1:])``, which builds a tuple
    of every repeat first and so fails with MemoryError, not ConfigError,
    beyond numpy's index range."""
    try:
        out = np.empty((rows,) + arr.shape[1:])
    except (ValueError, OverflowError):   # more elements or bytes than numpy can index
        raise ConfigError(f"{name} of {rows} rows is beyond numpy's index range") from None
    whole = rows - rows % len(arr)
    out[:whole].reshape(whole // len(arr), *arr.shape)[...] = arr
    out[whole:] = arr[:rows - whole]
    return _frozen(out)


def _extremes(name: str, arr: np.ndarray) -> tuple[float, float]:
    """(min, max) of ``arr``; ConfigError unless every entry is strictly
    positive and finite (a NaN makes both NaN)."""
    lo, hi = float(arr.min(initial=math.inf)), float(arr.max(initial=0.0))
    if not (0 < lo and hi < math.inf):
        raise ConfigError(f"{name} entries must be strictly positive and finite")
    return lo, hi


#: E, above numpy's largest unit exponential draw: 7.697 (ziggurat) + 53 ln 2, about 44.4.
_MAX_DRAW = 64.0


@dataclass(frozen=True, eq=False)
class NetworkConfig:
    """All static parameters of one network scenario.

    Powers are in linear watts.  ``eta[n]`` is the path-loss/shadowing
    factor of the n-th secondary link; ``gamma[n, j]`` the factor from
    the j-th primary transmitter to the n-th secondary receiver.  A single
    value of ``primary_count``, ``eta`` or ``gamma`` fills its whole shape;
    any other shape, ragged rows or non-numbers raise ConfigError, as do
    values that overflow the SINR law, or the SINR, its numerator or its
    denominator at any fading draw.  Fading is drawn per trial, not stored.
    """

    num_secondary: int                 # N
    num_bands: int                     # M
    primary_count: tuple[int, ...]     # K_m per band
    power_secondary: float             # P_s
    power_primary: float               # P_p
    noise_power: float                 # N_0
    eta: np.ndarray                    # shape (N,)
    gamma: np.ndarray                  # shape (N, max K_m)
    seed: int = 0

    def __post_init__(self):
        n = as_int("num_secondary", self.num_secondary, 1)
        m = as_int("num_bands", self.num_bands, 1)
        if m > n:
            raise ConfigError(f"num_bands ({m}) must not exceed num_secondary ({n})")
        counts = tuple(as_int("primary_count", k, 0)
                       for k in _filled("primary_count", self.primary_count, (m,)).tolist())
        for name in ("power_secondary", "power_primary", "noise_power"):
            power = as_real(name, getattr(self, name))
            if not 0 < power < math.inf:
                raise ConfigError(f"{name} must be strictly positive and finite")
            object.__setattr__(self, name, power)
        eta = _filled("eta", self.eta, (n,))
        eta_lo, eta_hi = _extremes("eta", eta)
        k_max = max(counts)
        gamma = _filled("gamma", self.gamma, (n, k_max))
        gamma_hi = _extremes("gamma", gamma)[1]
        # link_law's coefficients and the SINR's factors peak at eta's and
        # gamma's extremes, so checking those checks every user.
        rho = self.snr()
        if not (rho * eta_lo > 0 and 1 / (rho * eta_lo) < math.inf and 1 / (rho * eta_hi) > 0):
            raise ConfigError("the SINR law's slope 1/(rho*eta) must be strictly positive "
                              "and finite, rho being P_s/N_0")
        # sinr_block's numerator and denominator, in its order of operations, and their ratio.
        numerator = self.power_secondary * eta_hi * _MAX_DRAW
        denominator = self.noise_power + self.power_primary * (k_max * gamma_hi * _MAX_DRAW)
        if not max(self.pp_over_ps() * gamma_hi / eta_lo, numerator, denominator,
                   rho * eta_hi * _MAX_DRAW) < math.inf:
            raise ConfigError("(Pp/Ps)*gamma/eta and the SINR's numerator P_s*eta_max*E, "
                              "denominator N_0 + P_p*K_max*gamma_max*E and bound rho*eta_max*E "
                              f"must be finite, E = {_MAX_DRAW:g} bounding every fading draw")
        seed = as_int("seed", self.seed, 0)
        for name, value in (("num_secondary", n), ("num_bands", m),
                            ("primary_count", counts), ("eta", eta),
                            ("gamma", gamma), ("seed", seed)):
            object.__setattr__(self, name, value)

    # -- derived quantities -------------------------------------------------

    def snr(self) -> float:
        """Transmit SNR rho = P_s / N_0."""
        return self.power_secondary / self.noise_power

    def pp_over_ps(self) -> float:
        return self.power_primary / self.power_secondary

    def k_max(self) -> int:
        return max(self.primary_count)

    @functools.cached_property
    def link_law(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (slope, coeff) of every user's SINR law.

        User n's SINR on band m has the log-survival function
        x * slope[n] + sum_{j < K_m} log1p(coeff[n, j] * x), with
        slope[n] = 1 / (rho * eta_n), shape (N,), and
        coeff[n, j] = (Pp/Ps) * gamma_nj / eta_n, shape (N, max K_m).
        """
        return (_frozen(1.0 / (self.snr() * self.eta)),
                _frozen(self.pp_over_ps() * self.gamma / self.eta[:, None]))

    @functools.cached_property
    def one_law(self) -> bool:
        """True if every user has the same eta and the same gamma row, so one SINR law."""
        return bool((self.eta == self.eta[0]).all() and (self.gamma == self.gamma[:1]).all())

    @functools.cached_property
    def interference_weights(self) -> np.ndarray | None:
        """``gamma``, or None if it is all 1.0: x * 1.0 == x, so |h|^2 sum unweighted."""
        return None if np.all(self.gamma == 1.0) else self.gamma

    def bound_law(self, upper: bool) -> tuple[float, float]:
        """(slope, coefficient) of the bound variable S_u or S_l.

        The extremes of ``link_law``: S_l takes the largest slope and
        coefficient of any user, S_u the smallest.  The coefficient is 0
        when no primary users exist.
        """
        pick = np.min if upper else np.max
        slope, coeff = self.link_law
        return float(pick(slope)), float(pick(coeff)) if coeff.size else 0.0

    # -- construction helpers ----------------------------------------------

    @classmethod
    def homogeneous(cls, num_secondary, num_bands, primary_count, snr_db,
                    pp_over_ps=1.0, eta=1.0, gamma=1.0, seed=0) -> "NetworkConfig":
        """Build a config from the SNR in dB and the ratio P_p/P_s: P_s =
        10^(snr_db/10), P_p = pp_over_ps * P_s and N_0 = 1.  ``eta`` and
        ``gamma`` are one value for every link or per user, as the
        constructor takes them."""
        p_s = power_from_db("snr_db", as_real("snr_db", snr_db))
        p_p = as_real("pp_over_ps", pp_over_ps) * p_s
        if not 0 < p_p < math.inf:   # so pp_over_ps is too, P_s being so
            raise ConfigError("pp_over_ps and the primary power pp_over_ps * 10^(snr_db/10) "
                              "must be strictly positive and finite")
        return cls(
            num_secondary=num_secondary,
            num_bands=num_bands,
            primary_count=primary_count,
            power_secondary=p_s,
            power_primary=p_p,
            noise_power=1.0,
            eta=eta,
            gamma=gamma,
            seed=seed,
        )

    def with_population(self, num_secondary: int, seed=None) -> "NetworkConfig":
        """Same scenario with a different number of secondary pairs.

        Path-loss vectors are cycled to the new length, so a homogeneous
        template stays homogeneous at every population size.  The template
        is checked, and cycled arrays keep within its extremes, so only the
        new population and seed are checked: the result equals the
        constructor's config of the same fields.  Cycled rows of one law, or
        of unit gamma, keep that class, so a True ``one_law`` and a None
        ``interference_weights`` are passed down; a smaller population can
        drop a two-law or weighted template's distinct rows.
        """
        n = as_int("num_secondary", num_secondary, self.num_bands)
        seed = as_int("seed", self.seed if seed is None else seed, 0)
        config = object.__new__(type(self))   # no cached link_law is carried over
        config.__dict__.update({name: getattr(self, name) for name in _FIELDS},
                               num_secondary=n, eta=_cycled("eta", self.eta, n),
                               gamma=_cycled("gamma", self.gamma, n), seed=seed)
        if self.one_law:
            config.__dict__["one_law"] = True
        if self.interference_weights is None:
            config.__dict__["interference_weights"] = None
        return config

    def __eq__(self, other):
        if not isinstance(other, NetworkConfig):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(self))


#: The field names, in order: ``with_population`` copies them.
_FIELDS = tuple(f.name for f in dataclasses.fields(NetworkConfig))
