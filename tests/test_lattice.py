import numpy as np
import pytest

from dksom.lattice import (
    DEFAULT_SIGMA_END,
    DecaySchedule,
    Lattice,
    Schedule,
    default_sigma_start,
    grid_coordinates,
)


def test_rectangular_coordinates_row_major():
    pos = grid_coordinates(2, 2)
    np.testing.assert_array_equal(pos, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_hexagonal_offsets():
    pos = grid_coordinates(2, 2, "hexagonal")
    # odd rows shift right by half a cell; vertical pitch is sqrt(3)/2
    np.testing.assert_allclose(pos[:, 0], [0.0, 1.0, 0.5, 1.5])
    np.testing.assert_allclose(pos[2:, 1], np.sqrt(3.0) / 2.0)


def test_neighborhood_unit_distance_value():
    lat = Lattice(1, 2, "rectangular")
    h = lat.neighborhood(1.0)
    assert h[0, 0] == 1.0
    assert h[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert h[0, 1] == pytest.approx(0.606531, abs=1e-6)


def test_neighborhood_symmetric_and_bounded():
    lat = Lattice(3, 4, "hexagonal")
    h = lat.neighborhood(0.8)
    assert np.array_equal(h, h.T)
    assert np.all(np.diag(h) == 1.0)
    assert np.all((h > 0.0) & (h <= 1.0))


def test_default_sigma_start_half_diameter():
    assert default_sigma_start(Lattice(3, 3, "rectangular")) == pytest.approx(np.sqrt(8.0) / 2)
    assert default_sigma_start(Lattice(1, 1, "rectangular")) == 1.0
    assert DEFAULT_SIGMA_END == 0.3


def test_geometric_schedule_values():
    sched = DecaySchedule(2.0, 0.5, 3, "exponential_decay")
    assert sched.value_at(0) == pytest.approx(2.0)
    assert sched.value_at(1) == pytest.approx(1.0)
    assert sched.value_at(2) == pytest.approx(0.5)


def test_fixed_schedule_is_constant():
    sched = DecaySchedule(1.5, 1.5, 10, "fixed")
    assert all(v == 1.5 for v in sched.values())


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        DecaySchedule(0.5, 2.0, 3, "exponential_decay")  # increasing
    with pytest.raises(ValueError):
        DecaySchedule(1.0, 0.5, 0, "exponential_decay")  # no steps
    with pytest.raises(ValueError):
        DecaySchedule(1.0, 0.5, 3, "linear")  # unknown mode
    for start, final in ((np.nan, 0.5), (1.0, np.nan), (np.inf, 0.5), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            DecaySchedule(start, final, 3, "exponential_decay")
    sched = DecaySchedule(1.0, 0.5, 3, "exponential_decay")
    with pytest.raises(ValueError):
        sched.value_at(3)


def test_neighborhood_rejects_non_finite_sigma():
    lat = Lattice(2, 2, "rectangular")
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            lat.neighborhood(sigma)
    with pytest.raises(ValueError, match="sigma must be positive"):
        lat.neighborhood(-np.inf)


def test_schedule_default_sigma_starts_at_half_diameter():
    lat = Lattice(3, 3, "rectangular")
    sigmas = Schedule(4).sigmas(lat)
    assert sigmas[0] == default_sigma_start(lat) == pytest.approx(np.sqrt(8.0) / 2)
    assert sigmas[-1] == pytest.approx(DEFAULT_SIGMA_END)
    assert np.all(np.diff(sigmas) < 0.0)


def test_schedule_fixed_sigma_mode_still_decays_eps():
    sched = Schedule(5, 0.7, 0.7, "fixed", eps_start=0.4, eps_end=0.1)
    assert np.all(sched.sigmas(Lattice(2, 2, "rectangular")) == 0.7)
    eps = sched.epsilons()
    assert eps[0] == pytest.approx(0.4) and eps[-1] == pytest.approx(0.1)
    assert np.all(np.diff(eps) < 0.0)


def test_schedule_needs_a_step_when_built():
    for steps in (0, -3):
        with pytest.raises(ValueError, match="at least one step"):
            Schedule(steps)


def test_schedule_validates_only_when_read():
    lat = Lattice(2, 2, "rectangular")
    sched = Schedule(3, np.nan, eps_start=2.0)  # building checks only the step count
    with pytest.raises(ValueError, match="schedule endpoints must be finite"):
        sched.sigmas(lat)
    batch_only = Schedule(3, eps_start=0.001, eps_end=0.01)
    assert batch_only.sigmas(lat).shape == (3,)  # batch trainers never read eps
    with pytest.raises(ValueError, match="non-increasing"):
        batch_only.epsilons()
    with pytest.raises(ValueError, match="must not exceed 1"):
        Schedule(3, eps_start=1.5).epsilons()
    assert Schedule(3, eps_start=1.0).epsilons()[0] == 1.0


def test_lattice_rejects_bad_shape():
    with pytest.raises(ValueError):
        Lattice(0, 3, "rectangular")
    with pytest.raises(ValueError):
        Lattice(2, 2, "triangular")


def test_squared_distances_match_positions():
    lat = Lattice(2, 3, "rectangular")
    pos = lat.positions
    brute = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(lat.squared_distances, brute)
