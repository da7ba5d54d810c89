import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogdiv import ConfigError, NetworkConfig, analytics, harness
from cogdiv.config import as_int, as_population

from conftest import heterogeneous_config


def test_m_greater_than_n_rejected():
    with pytest.raises(ConfigError):
        NetworkConfig.homogeneous(4, 5, 1, 10.0)


def test_nonpositive_power_rejected():
    with pytest.raises(ConfigError):
        NetworkConfig(num_secondary=2, num_bands=1, primary_count=(1,),
                      power_secondary=0.0, power_primary=1.0, noise_power=1.0,
                      eta=[1, 1], gamma=[[1], [1]])


def test_primary_count_length_checked():
    with pytest.raises(ConfigError):
        NetworkConfig.homogeneous(10, 2, (1, 2, 3), 10.0)


def _direct_config(**kwargs):
    args = {"num_secondary": 3, "num_bands": 2, "primary_count": (1, 2),
            "power_secondary": 10.0, "power_primary": 10.0, "noise_power": 1.0,
            "eta": [1.0, 2.0, 0.5], "gamma": [[1, 2], [0.5, 1], [2, 4]], **kwargs}
    return NetworkConfig(**args)


@pytest.mark.parametrize("kwargs", [
    {"eta": [1.0, 2.0]},                       # wrong-size eta
    {"gamma": [[1, 2, 3], [0.5, 1, 2]]},       # wrong-shape gamma
    {"gamma": [[1, 2], [0.5], [2, 4]]},        # ragged gamma
    {"eta": ["one", "two", "three"]},          # non-numeric eta
    {"primary_count": (1, 2, 3)},              # wrong-size primary_count
    {"primary_count": [[1, 2], [3]]},          # ragged primary_count
    {"power_secondary": "ten"},                # non-numeric power
    {"eta": [1.0, -2.0, 0.5]},                 # entries not strictly positive and finite
    {"eta": [1.0, float("nan"), 0.5]},
    {"gamma": [[1, 2], [0.0, 1], [2, 4]]},
    {"gamma": [[1, 2], [0.5, float("nan")], [2, 4]]},
    # Finite values whose SINR law overflows.
    {"eta": [1.0, 2.0, 1e-320], "gamma": 1e-300},                       # slope 1/(rho*eta) is inf
    {"noise_power": 1e-300, "eta": [1.0, 1e10, 0.5]},                   # rho*eta is inf, the slope 0
    {"power_secondary": 1e-310},               # rho underflows: the slope is inf
    {"power_secondary": 1e-300, "eta": [1.0, 2.0, 1e-30]},              # rho*eta underflows to 0
    {"power_secondary": 1e-10, "power_primary": 1.0, "gamma": 1e300},   # (Pp/Ps)*gamma/eta
    {"power_secondary": 1e308, "noise_power": 1e308},                   # P_s*eta
    {"gamma": [[1, 2], [0.5, 1e308], [2, 4]], "eta": [1.0, 2.0, 1.0]},  # P_p*gamma
    # The SINR's numerator P_s*eta*E or denominator P_p*K*gamma*E overflows at
    # a fading draw of E = 64.
    {"power_secondary": 1e306, "noise_power": 1e306, "eta": [1.0, 3.0, 0.5]},     # P_s*eta*E
    {"power_secondary": 1e10, "power_primary": 1e305, "gamma": [[1, 2], [1, 1], [2, 15]]},
])
def test_direct_construction_rejects_bad_shapes_and_values(kwargs):
    with pytest.raises(ConfigError):
        _direct_config(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"power_secondary": 1e306, "noise_power": 1e306, "eta": [1.0, 2.5, 0.5]},     # 1.6e308
    {"power_secondary": 1e10, "power_primary": 1e305, "gamma": [[1, 2], [1, 1], [2, 13]]},
])
def test_sinr_just_inside_the_overflow_bound_builds(kwargs):
    # P_s*eta*E = 1.6e308 and P_p*K*gamma*E = 1.664e308, both below 1.8e308.
    _direct_config(**kwargs)


def test_single_value_fills_its_shape():
    cfg = _direct_config(primary_count=[2], eta=1.5, gamma=[[0.5]])
    assert cfg.primary_count == (2, 2)
    assert np.array_equal(cfg.eta, np.full(3, 1.5))
    assert np.array_equal(cfg.gamma, np.full((3, 2), 0.5))
    assert cfg == NetworkConfig.homogeneous(3, 2, 2, 10.0, eta=1.5, gamma=0.5)


def test_accessors():
    cfg = heterogeneous_config()
    assert cfg.snr() == cfg.power_secondary / cfg.noise_power
    slope, coeff = cfg.link_law
    assert np.array_equal(slope, 1.0 / (cfg.snr() * cfg.eta))
    assert np.array_equal(coeff, cfg.pp_over_ps() * cfg.gamma / cfg.eta[:, None])
    assert not slope.flags.writeable and not coeff.flags.writeable
    assert cfg.bound_law(upper=False) == (slope.max(), coeff.max())
    assert cfg.bound_law(upper=True) == (slope.min(), coeff.min())


def test_no_primary_users_bound_coefficient_zero():
    cfg = NetworkConfig.homogeneous(5, 2, 0, 10.0)
    assert cfg.k_max() == 0
    assert cfg.link_law[1].shape == (5, 0)
    assert cfg.bound_law(upper=False) == (0.1, 0.0)
    assert cfg.bound_law(upper=True) == (0.1, 0.0)


def test_with_population_keeps_homogeneity():
    cfg = NetworkConfig.homogeneous(10, 4, 4, 10.0, eta=1.5, gamma=0.5)
    big = cfg.with_population(500)
    assert big.num_secondary == 500
    assert np.all(big.eta == 1.5)
    assert np.all(big.gamma == 0.5)


def test_with_population_cycles_rows():
    cfg = heterogeneous_config(num_secondary=6)
    big = cfg.with_population(14)
    assert np.array_equal(big.eta[:6], cfg.eta)
    assert np.array_equal(big.eta[6:12], cfg.eta)
    assert np.array_equal(big.gamma[7], cfg.gamma[1])


@pytest.mark.parametrize("n, seed", [
    (2.5, None), ("ten", None), (None, None),    # N not an integer
    (3, None), (0, None), (-4, None),            # N < M = 4
    (10, -1), (10, 1.5), (10, "seed"),           # seed negative or not an integer
    (10**19, None), (2 * 10**18, None),          # beyond numpy's index range
])
def test_with_population_rejects_bad_values(n, seed):
    template = heterogeneous_config(num_secondary=6)
    with pytest.raises(ConfigError):
        template.with_population(n, seed=seed)


# One changed value per field; a primary_count of another length too.
_ONE_FIELD_CHANGES = {
    "num_secondary": 4, "num_bands": 3, "primary_count": (1, 2, 1),
    "power_secondary": 11.0, "power_primary": 11.0, "noise_power": 1.5,
    "eta": np.array([1.0, 2.0, 0.25]), "gamma": np.array([[1, 2], [0.5, 1], [2, 3.0]]),
    "seed": 2**1100 + 4,
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NetworkConfig)])
def test_each_field_counts_in_equality(field):
    cfg = _direct_config(seed=2**1100 + 3)
    changed = copy.copy(cfg)
    # Set unchecked, so that only this one field differs.
    object.__setattr__(changed, field, _ONE_FIELD_CHANGES[field])
    assert cfg == copy.copy(cfg)
    assert cfg != changed and changed != cfg


def test_equality_and_immutability():
    cfg = heterogeneous_config()
    assert cfg == heterogeneous_config()
    assert cfg != heterogeneous_config(seed=8)
    assert not cfg == 5 and cfg != "x"   # __eq__ leaves other types to them
    with pytest.raises(ValueError):
        cfg.eta[0] = 2.0


@pytest.mark.parametrize("kwargs", [
    {"snr_db": 1e400},
    {"snr_db": 4000.0},
    {"eta": float("inf")},
    {"primary_count": 2.5},
    {"seed": -1},
    {"num_secondary": 10**19},                 # beyond numpy's index range
    {"num_secondary": 10**20},
    {"num_secondary": 2 * 10**18},             # indexable, but 1.6e19 bytes
    {"primary_count": 10**19},
])
def test_homogeneous_rejects_bad_values(kwargs):
    args = {"num_secondary": 10, "num_bands": 2, "primary_count": 2, "snr_db": 10.0, **kwargs}
    with pytest.raises(ConfigError):
        NetworkConfig.homogeneous(**args)


BEYOND_FLOATS = st.integers(2**1024, 2**1100)
BOUND = st.none() | st.integers(-2**64, 2**64) | BEYOND_FLOATS
NON_INTEGERS = (st.floats().filter(lambda f: not f.is_integer())
                | st.sampled_from([None, "x", "", "1.5", [1], {}, 1 + 1j, np.float64(0.5)]))


def _whole_forms(n):
    """n as an int, and as an integral float and a numpy int where those hold it exactly."""
    return ([n] + ([float(n)] if abs(n) <= 2**53 else [])
            + ([np.int64(n)] if -2**63 <= n < 2**63 else []))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(low=BOUND, width=st.none() | st.integers(0, 2**70), data=st.data())
def test_as_int_takes_whole_numbers_in_range(low, width, data):
    high = None if low is None or width is None else low + width
    n = data.draw(st.integers(low, high))
    for value in _whole_forms(n):
        got = as_int("count", value, low, high)
        assert type(got) is int and got == n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(low=BOUND, width=st.none() | st.integers(0, 2**70), data=st.data())
def test_as_int_rejects_anything_else(low, width, data):
    high = None if low is None or width is None else low + width
    outside = [st.integers(max_value=low - 1)] if low is not None else []
    outside += [st.integers(min_value=high + 1)] if high is not None else []
    value = data.draw(st.one_of(NON_INTEGERS, *outside))
    with pytest.raises(ConfigError, match="^count must be"):
        as_int("count", value, low, high)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(low=st.integers(1, 2**64), extra=st.integers(0, 2**64))
def test_as_population_takes_finite_whole_numbers(low, extra):
    for value in _whole_forms(low + extra):
        got = as_population(value, low)
        assert type(got) is int and got == low + extra


@settings(max_examples=200, deadline=None, derandomize=True)
@given(low=st.integers(1, 2**64), data=st.data())
def test_as_population_rejects_anything_else(low, data):
    value = data.draw(NON_INTEGERS | BEYOND_FLOATS | st.integers(max_value=low - 1))
    with pytest.raises(ConfigError, match="population size"):
        as_population(value, low)


def _cfg():
    return NetworkConfig.homogeneous(20, 2, 2, 10.0)


@pytest.mark.parametrize("call, message", [
    (lambda: NetworkConfig.homogeneous(20, 2, 2, "x"), "snr_db must be numbers"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, 10.0, pp_over_ps="x"),
     "pp_over_ps must be numbers"),
    (lambda: harness.threshold_sweep(_cfg(), [10], ["x"], [1]), "rho_values_db must be numbers"),
    (lambda: analytics.expected_log_max("x", 10), "a must be numbers"),
    (lambda: analytics.expected_log_max(None, 10), "a must be numbers"),
    (lambda: analytics.cdf_exact("x", 0, 0, _cfg()), "x must be numbers"),
    (lambda: analytics.cdf_exact(1.0, 0.5, 0, _cfg()), "band must be an integer"),
    (lambda: analytics.cdf_lower(1.0, 1.5, _cfg()), "band must be an integer"),
    (lambda: analytics.cdf_exact(1.0, 0, 0.5, _cfg()), "user index"),
    (lambda: analytics.partial_binomial_sum(2.0, 10, 3), "p must be in"),
    (lambda: analytics.order_stat_cdf(lambda x: x, 1, 10, 2.0), "p must be in"),
    (lambda: harness.fit_double_log([1, 4], [1.0, 2.0]), "population size must be at least 2"),
    (lambda: analytics.build_threshold_table(_cfg(), 10**400), "a population size of"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, 10.0, seed=-10**5000),
     "seed must be at least 0, got an integer of 16610 bits"),
    # None is not a number: np.array(None, dtype=float) would read it as NaN.
    (lambda: analytics.cdf_exact(None, 0, 0, _cfg()), "x must be numbers"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, None), "snr_db must be numbers"),
    (lambda: harness.fit_double_log([], []), "means must be one value per N"),
    (lambda: harness.fit_double_log([10, 20, 30], [1.0, 2.0]), "means must be one value per N"),
    # A dB value whose power is not strictly positive and finite names its own parameter.
    (lambda: NetworkConfig.homogeneous(20, 2, 2, math.inf),
     "snr_db = inf dB gives no strictly positive and finite power$"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, -4000.0),
     "snr_db = -4000.0 dB gives no strictly positive and finite power$"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, 10.0, pp_over_ps=0),
     "pp_over_ps and the primary power"),
    (lambda: NetworkConfig.homogeneous(20, 2, 2, 10.0, pp_over_ps=math.nan),
     "pp_over_ps and the primary power"),
    (lambda: harness.threshold_sweep(_cfg(), [10], [math.nan], [1]),
     "rho_values_db = nan dB gives no strictly positive and finite power$"),
    (lambda: harness.threshold_sweep(_cfg(), [10], [-4000.0], [1]),
     "rho_values_db = -4000.0 dB gives no strictly positive and finite power$"),
    (lambda: harness.threshold_sweep(_cfg(), [10], [4000.0], [1]),
     "rho_values_db = 4000.0 dB gives no strictly positive and finite power$"),
    # A finite SNR whose primary power overflows or underflows names both factors.
    (lambda: harness.threshold_sweep(
        NetworkConfig.homogeneous(20, 2, 2, 10.0, pp_over_ps=1e300), [10], [0.0, 100.0], [1]),
     "rho_values_db = 100.0 dB with pp_over_ps = 1e\\+300 gives no strictly positive and "
     "finite powers$"),
    (lambda: harness.threshold_sweep(
        NetworkConfig.homogeneous(20, 2, 2, 10.0, pp_over_ps=1e-300), [10], [-300.0], [1]),
     "rho_values_db = -300.0 dB with pp_over_ps = 1e-300 gives no strictly positive and "
     "finite powers$"),
    # A bare scalar has no rows to blame.
    (lambda: analytics.cdf_exact(None, 0, 0, _cfg()), "x must be numbers$"),
    (lambda: analytics.cdf_exact("x", 0, 0, _cfg()), "x must be numbers$"),
], ids=["snr_db", "pp_over_ps", "threshold_sweep-rho", "expected_log_max-str",
        "expected_log_max-None", "cdf_exact-x", "cdf_exact-band", "cdf_lower-band",
        "cdf_exact-user", "partial_binomial_sum-p", "order_stat_cdf-p", "fit_double_log-N",
        "build_threshold_table-beyond-floats", "seed-beyond-str", "cdf_exact-x-None",
        "snr_db-None", "fit_double_log-empty", "fit_double_log-lengths", "snr_db-inf",
        "snr_db-underflow", "pp_over_ps-0", "pp_over_ps-nan", "threshold_sweep-rho-nan",
        "threshold_sweep-rho-underflow", "threshold_sweep-rho-overflow",
        "threshold_sweep-primary-overflow", "threshold_sweep-primary-underflow",
        "cdf_exact-x-None-no-rows", "cdf_exact-x-str-no-rows"])
def test_bad_scalar_or_index_is_a_config_error_naming_it(call, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        call()


def test_nan_x_gives_a_nan_cdf():
    cfg = _cfg()
    assert math.isnan(analytics.cdf_exact(math.nan, 0, 0, cfg))
    assert math.isnan(analytics.order_stat_cdf(
        functools.partial(analytics.cdf_lower, m=0, cfg=cfg), 1, 10, math.nan))
