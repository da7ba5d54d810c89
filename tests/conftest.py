import numpy as np
import pytest

from cogdiv import NetworkConfig, SinrTable


def heterogeneous_config(num_secondary=50, num_bands=4, k=4, snr_db=10.0,
                         seed=7, param_seed=123):
    """Config with spread-out path-loss factors, for bound/sandwich tests."""
    rng = np.random.default_rng(param_seed)
    k_counts = (k,) * num_bands if np.ndim(k) == 0 else tuple(k)
    k_max = max(k_counts) if k_counts else 0
    p_s = 10.0 ** (snr_db / 10.0)
    return NetworkConfig(
        num_secondary=num_secondary,
        num_bands=num_bands,
        primary_count=k_counts,
        power_secondary=p_s,
        power_primary=p_s,
        noise_power=1.0,
        eta=rng.uniform(0.5, 2.0, num_secondary),
        gamma=rng.uniform(0.25, 4.0, (num_secondary, k_max)),
        seed=seed,
    )


def table_from(sinr):
    """A SinrTable of the given (M, N) values."""
    return SinrTable(sinr=np.asarray(sinr, dtype=float))


def assert_csv_field(field: str, value) -> None:
    """A CSV field holds ``value`` exactly, in shortest round-trip form: the
    ``repr`` of its float, or of its int for an integer ``value``."""
    assert float(field) == value
    assert repr(type(value)(field)) == field


@pytest.fixture
def hetero_cfg():
    return heterogeneous_config()


@pytest.fixture
def homog_cfg():
    return NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=11)
