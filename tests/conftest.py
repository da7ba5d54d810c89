import contextlib
import os
from unittest import mock

import numpy as np
import pytest

from cogdiv import NetworkConfig, SinrTable, channel, harness


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


@contextlib.contextmanager
def forced_prefetch(on: bool, blocks: int = 1, draws: int = 1):
    """The prefetch path of ``channel.trial_passes`` on every span of at
    least ``blocks`` blocks of at least ``draws`` draws a trial (on), or on
    none (off), in a process whose CPU affinity reports two CPUs.  Yields
    the list of the number of rows of each fill given to the worker."""
    limits = {"PREFETCH_BLOCKS": blocks if on else 2**62, "PREFETCH_DRAWS": draws}
    given, fill_ahead = [], channel._fill_ahead

    def noting_fill_ahead(worker, images, rows):
        given.append(len(images))
        return fill_ahead(worker, images, rows)

    with mock.patch.multiple(channel, **limits), \
            mock.patch.object(channel, "_fill_ahead", noting_fill_ahead), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        yield given


def table_from(sinr):
    """A SinrTable of the given (M, N) values."""
    return SinrTable(sinr=np.asarray(sinr, dtype=float))


def assert_csv_field(field: str, value) -> None:
    """A CSV field holds ``value`` exactly, in shortest round-trip form: the
    ``repr`` of its float, or of its int for an integer ``value``."""
    assert float(field) == value
    assert repr(type(value)(field)) == field


@pytest.fixture(autouse=True)
def no_law_checks_kept():
    """Each test starts with no law-only checks kept by ``validate``, so a
    test that patches a CDF reads its own scan whatever test ran before it."""
    harness._LAST_LAW.clear()


@pytest.fixture
def hetero_cfg():
    return heterogeneous_config()


@pytest.fixture
def homog_cfg():
    return NetworkConfig.homogeneous(50, 4, 4, 10.0, seed=11)
