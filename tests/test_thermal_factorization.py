"""Tests for the banded-Cholesky factoriser and its shared content-keyed cache."""

import ctypes
import gc
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.errors import SolverError
from repro.scenarios import ScenarioRunner, default_registry
from repro.thermal import (
    FactorizationCache,
    clear_factorization_cache,
    factorization_cache_stats,
    factorize,
    matrix_content_key,
)
from repro.thermal import factorization
from repro.thermal.factorization import (
    _DPBTRF,
    _SPBTRF,
    SINGLE_PRECISION_BAND_BYTES,
    BandedCholesky,
    CacheEntry,
    _int,
    lapack_routine,
    shared_cache,
)


def spd_matrix(n=12, seed=0, scale=1.0):
    """A small sparse SPD matrix (diffusion-like tridiagonal plus noise)."""
    rng = np.random.default_rng(seed)
    diag = 2.0 + rng.random(n)
    off = -rng.random(n - 1)
    matrix = sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    return (scale * matrix).tocsc()


def stencil_operator(shape, seed, decades=6.0, leak=1.0):
    """A seeded anisotropic 7-point SPD operator on an ``(nx, ny, nz)`` grid.

    Cell conductivities span ``decades`` decades and each axis gets its own
    scale;
    faces couple neighbours through the harmonic mean, and the top layer
    leaks to ambient through ``leak`` times its conductivity, which makes
    the operator positive definite.  Cells
    are numbered like the thermal mesh (x slowest), so the natural band is
    ``ny * nz`` wide.
    """
    rng = np.random.default_rng(seed)
    n_cells = int(np.prod(shape))
    index = np.arange(n_cells).reshape(shape)
    conductivity = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=shape)
    axis_scale = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    diagonal = np.zeros(n_cells)
    rows, cols, values = [], [], []
    for axis in range(3):
        low = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        high = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        face = axis_scale[axis] * 2.0 / (
            1.0 / conductivity[low] + 1.0 / conductivity[high]
        )
        left, right, face = index[low].ravel(), index[high].ravel(), face.ravel()
        rows += [left, right]
        cols += [right, left]
        values += [-face, -face]
        np.add.at(diagonal, left, face)
        np.add.at(diagonal, right, face)
    np.add.at(
        diagonal, index[:, :, -1].ravel(), leak * conductivity[:, :, -1].ravel()
    )
    rows.append(np.arange(n_cells))
    cols.append(np.arange(n_cells))
    values.append(diagonal)
    return sparse.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_cells, n_cells),
    ).tocsr()


class TestBandedCholesky:
    #: ``(shape, ordering the factoriser must pick)``.
    SHAPES = [
        ((2, 9, 9), "rcm"),
        ((3, 12, 10), "rcm"),
        ((12, 3, 2), "natural"),
        ((20, 4, 3), "natural"),
        ((6, 7, 1), "natural"),  # a single-layer mesh
        ((1, 1, 1), "natural"),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape,ordering", SHAPES)
    def test_matches_dense_solve(self, shape, ordering, seed):
        matrix = stencil_operator(shape, seed)
        if matrix.shape[0] > 1:
            diagonal = matrix.diagonal()
            assert diagonal.max() / diagonal.min() >= 1.0e4
        factor = BandedCholesky(matrix)
        natural = shape[1] * shape[2] if matrix.shape[0] > 1 else 0
        if ordering == "rcm":
            assert factor.bandwidth < natural
        else:
            assert factor.bandwidth == natural
        rng = np.random.default_rng(100 + seed)
        rhs = rng.standard_normal((matrix.shape[0], 3))
        expected = np.linalg.solve(matrix.toarray(), rhs)
        solution = factor.solve(rhs)
        assert solution.shape == rhs.shape
        assert np.linalg.norm(solution - expected) <= 1e-12 * np.linalg.norm(expected)
        vector = factor.solve(rhs[:, 1])
        assert vector.shape == (matrix.shape[0],)
        assert np.linalg.norm(vector - expected[:, 1]) <= 1e-12 * np.linalg.norm(
            expected[:, 1]
        )

    def test_solve_leaves_the_right_hand_side_untouched(self):
        for shape in [(2, 9, 9), (12, 3, 2)]:
            matrix = stencil_operator(shape, 3)
            rhs = np.arange(matrix.shape[0], dtype=np.float64)
            before = rhs.copy()
            BandedCholesky(matrix).solve(rhs)
            np.testing.assert_array_equal(rhs, before)

    def test_indefinite_matrix_raises_solver_error(self):
        matrix = stencil_operator((3, 4, 5), 4)
        with pytest.raises(SolverError, match="60x60"):
            BandedCholesky(-matrix)

    def test_singular_matrix_raises_solver_error(self):
        matrix = sparse.lil_matrix(stencil_operator((3, 4, 5), 5))
        # Decouple one cell and drop its diagonal: an exactly singular row.
        matrix[7, :] = 0.0
        matrix[:, 7] = 0.0
        with pytest.raises(SolverError, match="not positive definite"):
            BandedCholesky(matrix.tocsr())
        with pytest.raises(SolverError):
            BandedCholesky(sparse.csr_matrix((1, 1)))

    @pytest.mark.parametrize("shape", [(2, 9, 9), (12, 3, 2)])
    def test_served_factorization_solves_bit_identically_to_a_fresh_one(
        self, shape
    ):
        cache = FactorizationCache()
        matrix = stencil_operator(shape, 6)
        cache.factorize(matrix)
        served, _, reused = cache.factorize(stencil_operator(shape, 6))
        assert reused
        fresh = BandedCholesky(stencil_operator(shape, 6))
        rhs = np.random.default_rng(7).standard_normal((matrix.shape[0], 4))
        np.testing.assert_array_equal(served.solve(rhs), fresh.solve(rhs))
        np.testing.assert_array_equal(
            served.solve(rhs[:, 0]), fresh.solve(rhs[:, 0])
        )


def scipy_cholesky(matrix, permutation, bandwidth):
    """scipy's float64 banded Cholesky of the lower band of ``matrix`` in
    the order ``permutation`` (``None``: natural)."""
    from scipy.linalg import cholesky_banded

    ordered = matrix if permutation is None else matrix[permutation][:, permutation]
    lower = sparse.tril(ordered).tocoo()
    band = np.zeros((bandwidth + 1, matrix.shape[0]))
    band[lower.row - lower.col, lower.col] = lower.data
    return cholesky_banded(band, lower=True, check_finite=False)


def scipy_solve(cholesky, permutation, rhs):
    """``rhs`` solved by scipy through a :func:`scipy_cholesky` factor."""
    from scipy.linalg import cho_solve_banded

    ordered = rhs if permutation is None else rhs[permutation]
    solution = cho_solve_banded((cholesky, True), ordered, check_finite=False)
    if permutation is None:
        return solution
    unpermuted = np.empty_like(solution)
    unpermuted[permutation] = solution
    return unpermuted


class TestLapackParity:
    """:class:`BandedCholesky` calls ``dpbtrf``/``dpbtrs`` itself; scipy's
    wrappers of the same routines are the oracle."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("shape,ordering", TestBandedCholesky.SHAPES)
    def test_factor_and_solves_match_scipy_bit_for_bit(self, shape, ordering, seed):
        matrix = stencil_operator(shape, seed)
        n = matrix.shape[0]
        factor = BandedCholesky(matrix)
        permutation = factor._permutation
        assert (permutation is not None) == (ordering == "rcm")
        # scipy factorises the lower band of the matrix in the chosen order.
        expected = scipy_cholesky(matrix, permutation, factor.bandwidth)
        np.testing.assert_array_equal(factor._factor, expected)

        rng = np.random.default_rng(200 + seed)
        for rhs in (
            rng.standard_normal(n),
            rng.standard_normal((n, 1)),
            rng.standard_normal((n, 3)),
        ):
            before = rhs.copy()
            oracle = scipy_solve(expected, permutation, rhs)
            solution = factor.solve(rhs)
            assert solution.shape == rhs.shape
            np.testing.assert_array_equal(solution, oracle)
            np.testing.assert_array_equal(rhs, before)

    @pytest.mark.parametrize("shape,ordering", TestBandedCholesky.SHAPES)
    def test_a_stacked_solve_equals_its_per_column_solves(self, shape, ordering):
        factor = BandedCholesky(stencil_operator(shape, 0))
        assert (factor._permutation is not None) == (ordering == "rcm")
        stacked = np.random.default_rng(300).standard_normal((factor._factor.shape[1], 3))
        solution = factor.solve(stacked)
        for column in range(3):
            np.testing.assert_array_equal(
                solution[:, column], factor.solve(stacked[:, column])
            )

    def test_a_missing_routine_is_named(self):
        with pytest.raises(ImportError, match="dpbtrf_nonexistent"):
            lapack_routine("dpbtrf_nonexistent")

    def test_a_right_hand_side_of_another_size_is_rejected(self):
        factor = BandedCholesky(stencil_operator((2, 9, 9), 0))
        for shape in [(161,), (161, 2), (162, 2, 2)]:
            with pytest.raises(ValueError, match="does not fit"):
                factor.solve(np.ones(shape))


def coo_factor(matrix):
    """Factor and permutation as built through a summed COO copy of
    ``matrix``, in the factor's own precision (a float32 band and ``spbtrf``
    above :data:`SINGLE_PRECISION_BAND_BYTES`): the reference the band read
    off the canonical CSR form must equal byte for byte."""
    coo = sparse.coo_matrix(matrix)
    coo.sum_duplicates()
    n = coo.shape[0]
    rows, cols = coo.row, coo.col
    permutation = reverse_cuthill_mckee(coo.tocsr(), symmetric_mode=True)
    inverse = np.empty(n, dtype=np.intp)
    inverse[permutation] = np.arange(n)
    natural = int(np.max(np.abs(rows - cols), initial=0))
    permuted = int(np.max(np.abs(inverse[rows] - inverse[cols]), initial=0))
    if permuted < natural:
        rows, cols = inverse[rows], inverse[cols]
    else:
        permutation = None
    bandwidth = min(natural, permuted)
    single = n * (bandwidth + 1) * 8 > SINGLE_PRECISION_BAND_BYTES
    lower = rows >= cols
    band = np.zeros(
        (bandwidth + 1, n), dtype=np.float32 if single else np.float64, order="F"
    )
    band[rows[lower] - cols[lower], cols[lower]] = coo.data[lower]
    info = ctypes.c_int(0)
    (_SPBTRF if single else _DPBTRF)(
        b"L", _int(n), _int(bandwidth), band.ctypes.data, _int(bandwidth + 1),
        ctypes.byref(info),
    )
    assert info.value == 0
    return band, permutation


def assert_coo_factor(matrix):
    factor = BandedCholesky(matrix)
    band, permutation = coo_factor(matrix)
    assert factor._factor.shape == band.shape
    assert factor._factor.dtype == band.dtype
    assert factor._factor.tobytes(order="F") == band.tobytes(order="F")
    if permutation is None:
        assert factor._permutation is None
    else:
        np.testing.assert_array_equal(factor._permutation, permutation)
    return factor


class TestBandFromCanonicalCsr:
    """The band is read off the canonical CSR form of the matrix; the
    factor is the one a summed COO copy gave, byte for byte."""

    def test_case_study_operator_and_stepper(self):
        spec = default_registry().get("scc_case_study")
        flow = ScenarioRunner(spec).flow()
        mesh = flow.transient_solver().mesh
        entry = shared_cache.operator(mesh, flow.architecture.boundary_conditions())
        operator = entry.operator.matrix
        assert sparse.isspmatrix_csr(operator) and operator.shape[0] == 18445
        stepper = (
            sparse.diags(mesh.capacitance_vector() / spec.trace.dt_s) + operator
        ).tocsc()
        for matrix in (operator, stepper):
            assert assert_coo_factor(matrix)._factor.dtype == np.float32

    def test_duplicate_entries_are_summed(self):
        matrix = stencil_operator((3, 12, 10), 0).tocoo()
        # Each entry split in two halves: exact, whichever order sums them.
        half = matrix.data / 2.0
        order = np.random.default_rng(0).permutation(2 * matrix.nnz)
        rows = np.concatenate([matrix.row, matrix.row])[order]
        cols = np.concatenate([matrix.col, matrix.col])[order]
        data = np.concatenate([half, half])[order]
        duplicated = sparse.coo_matrix((data, (rows, cols)), shape=matrix.shape)
        assert_coo_factor(duplicated)
        np.testing.assert_array_equal(
            BandedCholesky(duplicated)._factor, BandedCholesky(matrix)._factor
        )
        # A CSR matrix with unsorted duplicates is summed on a copy, not
        # in place.
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows))])
        raw = sparse.csr_matrix(
            (data[by_row], cols[by_row], indptr), shape=matrix.shape
        )
        indices = raw.indices.copy()
        assert not raw.has_canonical_format
        assert_coo_factor(raw)
        np.testing.assert_array_equal(raw.indices, indices)


def float64_band_bytes(factor):
    """Bytes of the float64 band of the matrix ``factor`` was built from."""
    return factor._factor.shape[1] * (factor.bandwidth + 1) * 8


class TestSinglePrecision:
    """Above :data:`SINGLE_PRECISION_BAND_BYTES` the band is factored in
    float32 and each solve refined in float64 under ``dsposv``'s rule."""

    #: A grid whose natural float64 band (400 wide) is above the threshold.
    SHAPE = (42, 20, 20)

    def test_refined_solves_meet_the_dsposv_bound(self):
        matrix = stencil_operator(self.SHAPE, 0)
        factor = BandedCholesky(matrix)
        assert float64_band_bytes(factor) > SINGLE_PRECISION_BAND_BYTES
        assert factor._factor.dtype == np.float32
        n = matrix.shape[0]
        norm = np.max(abs(matrix) @ np.ones(n))
        epsilon = np.finfo(np.float64).epsneg
        cholesky = scipy_cholesky(matrix, factor._permutation, factor.bandwidth)
        rng = np.random.default_rng(400)
        for rhs in (
            rng.standard_normal(n),
            rng.standard_normal((n, 1)),
            rng.standard_normal((n, 3)),
        ):
            before = rhs.copy()
            solution = factor.solve(rhs)
            assert solution.shape == rhs.shape and solution.dtype == np.float64
            np.testing.assert_array_equal(rhs, before)
            oracle = scipy_solve(cholesky, factor._permutation, rhs)
            columns = zip(
                rhs.reshape(n, -1).T,
                solution.reshape(n, -1).T,
                oracle.reshape(n, -1).T,
            )
            for column, refined, expected in columns:
                residual = np.max(np.abs(column - matrix @ refined))
                bound = np.max(np.abs(refined)) * norm * epsilon * np.sqrt(n)
                assert residual <= bound
                assert np.max(np.abs(refined - expected)) <= 1e-10 * np.max(
                    np.abs(expected)
                )
        # A right-hand side that is not finite has nothing to refine.
        assert not np.isfinite(factor.solve(np.full(n, np.nan))).any()
        # No refinement fell back to float64.
        assert factor._factor.dtype == np.float32

    def test_a_stacked_solve_equals_its_per_column_solves(self):
        factor = BandedCholesky(stencil_operator(self.SHAPE, 1))
        assert factor._factor.dtype == np.float32
        n = factor._factor.shape[1]
        stacked = np.random.default_rng(500).standard_normal((n, 3))
        stacked[:, 2] = 0.0
        solution = factor.solve(stacked)
        for column in range(3):
            np.testing.assert_array_equal(
                solution[:, column], factor.solve(stacked[:, column])
            )
        np.testing.assert_array_equal(solution[:, 2], np.zeros(n))

    def near_floating(self):
        """A near-floating package: the top layer barely leaks, so
        ``cond(A)·ε₃₂ > 1`` and float32 refinement cannot converge."""
        return stencil_operator(self.SHAPE, 2, decades=2.0, leak=1e-10)

    def test_refinement_that_does_not_converge_refactors_in_float64(
        self, monkeypatch
    ):
        matrix = self.near_floating()
        n = matrix.shape[0]
        # max(diag) ≤ λmax, and the Rayleigh quotient of the ones vector
        # bounds λmin from above: a lower bound on the condition number.
        smallest = np.ones(n) @ (matrix @ np.ones(n)) / n
        assert matrix.diagonal().max() / smallest * np.finfo(np.float32).eps > 1.0
        factor = BandedCholesky(matrix)
        assert factor._factor.dtype == np.float32
        rhs = np.random.default_rng(600).standard_normal((n, 2))
        solution = factor.solve(rhs)
        assert factor._factor.dtype == np.float64 and factor._matrix is None
        monkeypatch.setattr(
            factorization, "SINGLE_PRECISION_BAND_BYTES", float("inf")
        )
        double = BandedCholesky(matrix)
        assert double._factor.dtype == np.float64
        np.testing.assert_array_equal(factor._factor, double._factor)
        np.testing.assert_array_equal(solution, double.solve(rhs))
        assert factor.nbytes == double.nbytes

    def test_threads_meeting_a_failed_refinement_refactor_once(self, monkeypatch):
        matrix = self.near_floating()
        factor = BandedCholesky(matrix)
        factored = []
        factor_band = factorization._factor_band

        def counting(band):
            factored.append(band.dtype)
            return factor_band(band)

        monkeypatch.setattr(factorization, "_factor_band", counting)
        rhs = np.random.default_rng(800).standard_normal(matrix.shape[0])
        results, errors = [], []

        def worker():
            try:
                results.append(factor.solve(rhs))
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 4
        assert factored == [np.dtype(np.float64)]
        for result in results:
            np.testing.assert_array_equal(result, factor.solve(rhs))

    def test_a_float32_breakdown_refactors_in_float64(self):
        # Cells 0 and 1 couple to the rest of the grid only weakly, and to
        # each other through ``[[1, b], [b, 1]]`` with ``1 - b = 2⁻³⁰``:
        # positive definite, but float32 rounds ``b`` to 1, so ``spbtrf``
        # meets a pivot ≤ 0.
        grid = stencil_operator(self.SHAPE, 3, decades=0.0)
        n = grid.shape[0]
        weak = np.ones(n)
        weak[:2] = 1e-6
        scale = sparse.diags(weak)
        b = 1.0 - 2.0 ** -30
        block = sparse.coo_matrix(
            ([1.0, b, b, 1.0], ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(n, n)
        )
        matrix = (scale @ grid @ scale + block).tocsr()
        factor = BandedCholesky(matrix)
        assert float64_band_bytes(factor) > SINGLE_PRECISION_BAND_BYTES
        assert factor._factor.dtype == np.float64 and factor._matrix is None
        rhs = np.random.default_rng(700).standard_normal(n)
        cholesky = scipy_cholesky(matrix, factor._permutation, factor.bandwidth)
        np.testing.assert_array_equal(
            factor.solve(rhs), scipy_solve(cholesky, factor._permutation, rhs)
        )

    def test_an_indefinite_matrix_still_raises(self):
        matrix = -stencil_operator(self.SHAPE, 4)
        with pytest.raises(SolverError, match="not positive definite.*dpbtrf"):
            BandedCholesky(matrix)

    @pytest.mark.parametrize(
        "shape,routine", [((3, 4, 5), "dpbtrs"), (SHAPE, "spbtrs")]
    )
    def test_a_solve_error_names_the_routine_called(
        self, shape, routine, monkeypatch
    ):
        factor = BandedCholesky(stencil_operator(shape, 5))
        dtype = factor._factor.dtype

        def rejecting(*args):
            args[-1]._obj.value = -7

        factor_routine, _ = factorization._ROUTINES[dtype]
        monkeypatch.setitem(
            factorization._ROUTINES, dtype, (factor_routine, (routine, rejecting))
        )
        with pytest.raises(SolverError, match=f"^{routine} rejected its argument 7"):
            factor.solve(np.ones(factor._factor.shape[1]))

    def test_the_case_study_factor_holds_at_most_055_of_the_float64_band(self):
        clear_factorization_cache()
        spec = default_registry().get("scc_case_study")
        flow = ScenarioRunner(spec).flow()
        entry = shared_cache.operator(
            flow.transient_solver().mesh, flow.architecture.boundary_conditions()
        )
        matrix = entry.operator.matrix
        factor, _, _ = shared_cache.factorize(matrix, entry.key)
        assert factor._factor.dtype == np.float32 and factor._matrix is matrix
        matrix_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert factor.nbytes == (
            factor._factor.nbytes + factor._permutation.nbytes + matrix_bytes
        )
        stats = factorization_cache_stats()
        assert stats["kinds"]["operator"] == 1 and stats["kinds"]["stepper"] == 0
        # The operator's matrix is the one the factor refines against:
        # counted once.
        assert stats["bytes"] == factor.nbytes
        assert stats["bytes"] <= 0.55 * float64_band_bytes(factor)
        clear_factorization_cache()


class TestMatrixContentKey:
    def test_content_addressed(self):
        a = spd_matrix(seed=1)
        b = spd_matrix(seed=1)
        assert a is not b
        assert matrix_content_key(a) == matrix_content_key(b)

    def test_layout_independent(self):
        a = spd_matrix(seed=2)
        assert matrix_content_key(a) == matrix_content_key(a.tocsr())
        assert matrix_content_key(a) == matrix_content_key(a.tocoo())

    def test_sensitive_to_values_and_pattern(self):
        a = spd_matrix(seed=3)
        scaled = spd_matrix(seed=3, scale=1.0 + 1e-12)
        assert matrix_content_key(a) != matrix_content_key(scaled)
        widened = sparse.lil_matrix(a)
        widened[0, 5] = 1.0e-30
        assert matrix_content_key(a) != matrix_content_key(widened.tocsc())
        assert matrix_content_key(a) != matrix_content_key(spd_matrix(n=13, seed=3))


class TestFactorizationCache:
    def test_reuse_is_keyed_by_content(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=4)
        first, key, reused = cache.factorize(matrix)
        assert not reused
        # An independently assembled but identical matrix is served the same
        # factorisation object.
        second, same_key, reused = cache.factorize(spd_matrix(seed=4))
        assert reused and same_key == key and second is first
        other, other_key, reused = cache.factorize(spd_matrix(seed=5))
        assert not reused and other_key != key
        assert cache.stats() == {
            "built": 2,
            "reused": 1,
            "entries": 2,
            "kinds": {"operator": 0, "stepper": 0, "factor": 2, "flow": 0, "basis": 0},
            "bytes": first.nbytes + other.nbytes,
        }

    def test_served_factorization_solves_identically(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=6)
        rhs = np.arange(matrix.shape[0], dtype=np.float64)
        built, _, _ = cache.factorize(matrix)
        served, _, reused = cache.factorize(spd_matrix(seed=6))
        assert reused
        np.testing.assert_array_equal(built.solve(rhs), served.solve(rhs))

    def test_precomputed_key_is_trusted(self):
        cache = FactorizationCache()
        matrix = spd_matrix(seed=7)
        key = matrix_content_key(matrix)
        _, returned, reused = cache.factorize(matrix, key=key)
        assert returned == key and not reused
        _, _, reused = cache.factorize(matrix, key=key)
        assert reused

    def test_lru_eviction_is_bounded(self):
        cache = FactorizationCache(max_entries=1)
        cache.factorize(spd_matrix(seed=8))
        cache.factorize(spd_matrix(seed=9))  # evicts seed-8
        assert len(cache) == 1
        _, _, reused = cache.factorize(spd_matrix(seed=8))
        assert not reused  # was evicted: rebuilt
        assert cache.stats()["built"] == 3

    def test_bytes_gauge_follows_eviction(self):
        cache = FactorizationCache(max_entries=2)
        assert cache.stats()["bytes"] == 0
        small, _, _ = cache.factorize(stencil_operator((12, 3, 2), 8))
        large, _, _ = cache.factorize(stencil_operator((3, 12, 10), 8))
        assert small.nbytes > 0 and large.nbytes > small.nbytes
        assert cache.stats()["bytes"] == small.nbytes + large.nbytes
        # A third factor evicts the least recently used one (``small``).
        third, _, _ = cache.factorize(stencil_operator((6, 7, 1), 8))
        assert cache.stats()["bytes"] == large.nbytes + third.nbytes
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_clear_keeps_lifetime_counters(self):
        cache = FactorizationCache()
        cache.factorize(spd_matrix(seed=10))
        cache.factorize(spd_matrix(seed=10))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["built"] == 1 and stats["reused"] == 1


class TestSharedCache:
    def test_module_level_cache_round_trip(self):
        clear_factorization_cache()
        before = factorization_cache_stats()
        matrix = spd_matrix(seed=11)
        _, key, reused = factorize(matrix)
        assert not reused
        _, _, reused = factorize(spd_matrix(seed=11), key=key)
        assert reused
        after = factorization_cache_stats()
        assert after["built"] == before["built"] + 1
        assert after["reused"] == before["reused"] + 1
        clear_factorization_cache()


def mesh_stack(side_mm):
    """A one-layer silicon stack on a square footprint."""
    from repro.geometry import Layer, LayerStack, Rect
    from repro.materials import SILICON

    stack = LayerStack(Rect.from_size_mm(0.0, 0.0, side_mm, side_mm))
    stack.add_layer(Layer(name="bulk", thickness=400e-6, material=SILICON))
    return stack


def slab(side_mm=5.0):
    """A one-layer slab (mesh, boundaries, source); its size sets the operator."""
    from repro.thermal import BoundaryConditions, FaceCondition, HeatSource, MeshBuilder

    stack = mesh_stack(side_mm)
    footprint = stack.footprint
    mesh = MeshBuilder(stack, base_cell_size_um=1000.0, vertical_target_um=100.0).build()
    boundaries = BoundaryConditions()
    boundaries.set_face("z_max", FaceCondition.convective(25.0, 1500.0))
    return mesh, boundaries, HeatSource.from_rect("sheet", footprint, 0.0, 10e-6, 5.0)


class TestCacheOwnership:
    """The shared cache is the only holder of operators, factors and steppers."""

    def test_evicted_factor_is_freed(self, monkeypatch):
        import repro.thermal.factorization as factorization_module
        from repro.geometry import Rect
        from repro.thermal import SteadyStateSolver, ZoomSolver

        built = []
        original = factorization_module.BandedCholesky

        def recording_factor(matrix):
            factor = original(matrix)
            built.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(factorization_module, "BandedCholesky", recording_factor)
        clear_factorization_cache()
        mesh, boundaries, source = slab(6.0)
        solver = SteadyStateSolver(mesh, boundaries)
        coarse = solver.solve([source])
        zoom = ZoomSolver(mesh_stack(6.0), boundaries, cell_size_um=250.0)
        zoom.solve(coarse, Rect.from_size_mm(2.5, 2.5, 1.0, 1.0), [source])
        held = list(built)
        assert len(held) == 2 and all(ref() is not None for ref in held)

        # More distinct operators than the LRU holds push both out, while
        # the solvers that used them stay alive.
        others = [slab(1.0 + 0.25 * index) for index in range(8)]
        for other_mesh, other_boundaries, other_source in others:
            SteadyStateSolver(other_mesh, other_boundaries).solve([other_source])
        gc.collect()
        assert solver is not None and zoom is not None
        assert all(ref() is None for ref in held)

        alive = [ref() for ref in built[2:]]
        assert len(alive) == 8 and all(factor is not None for factor in alive)
        entries = [
            shared_cache.operator(other_mesh, other_boundaries)
            for other_mesh, other_boundaries, _ in others
        ]
        assert {id(entry.factor) for entry in entries} == {id(f) for f in alive}
        stats = factorization_cache_stats()
        assert stats["entries"] == 8
        assert stats["bytes"] == sum(entry.nbytes for entry in entries)
        assert stats["bytes"] > sum(factor.nbytes for factor in alive)

    def test_cleared_cache_is_cold(self, monkeypatch):
        import repro.thermal.factorization as factorization_module
        from repro.thermal import (
            ScheduleSegment,
            SourceSchedule,
            SteadyStateSolver,
            TransientSolver,
        )

        assembled = []
        original = factorization_module.assemble_operator

        def counting_assembly(mesh, boundaries):
            assembled.append(1)
            return original(mesh, boundaries)

        monkeypatch.setattr(factorization_module, "assemble_operator", counting_assembly)
        mesh, boundaries, source = slab()
        schedule = SourceSchedule([ScheduleSegment(1.0, (source,))])
        steady = SteadyStateSolver(mesh, boundaries)
        transient = TransientSolver(mesh, boundaries)
        for round_index in range(2):
            clear_factorization_cache()
            assert factorization_cache_stats()["entries"] == 0
            assert factorization_cache_stats()["bytes"] == 0
            built = factorization_cache_stats()["built"]
            steady.solve([source])
            transient.solve(schedule, dt_s=0.5)
            # One operator shared by both solvers; its factor and one stepper.
            assert len(assembled) == round_index + 1
            assert factorization_cache_stats()["built"] == built + 2
            assert steady.last_diagnostics.factorization_reused is False

    def test_campaign_assembles_each_operator_once(self, monkeypatch):
        import repro.thermal.factorization as factorization_module
        from repro.campaigns import get_matrix, run_campaign

        assembled = []
        original = factorization_module.assemble_operator

        def counting_assembly(mesh, boundaries):
            assembled.append(mesh.n_cells)
            return original(mesh, boundaries)

        monkeypatch.setattr(factorization_module, "assemble_operator", counting_assembly)
        clear_factorization_cache()
        points = get_matrix("workload_grid").points()[:3]
        report = run_campaign(points, name="workload_grid_slice")
        assert not report.failures and len(report.artifacts) == 3
        # Three specs share one mesh: one package and one zoom-window
        # operator in total.
        assert len(assembled) == 2

    def test_concurrent_solvers_lose_no_update(self):
        # More threads than cores, more distinct operators and steppers than
        # the LRU holds, and a short switch interval: every solve must match
        # the serial reference, and every factor request must be counted.
        import threading

        from repro.thermal import (
            ScheduleSegment,
            SourceSchedule,
            SteadyStateSolver,
            TransientSolver,
        )

        problems = [slab(1.0 + 0.5 * index) for index in range(5)]
        schedules = [
            SourceSchedule([ScheduleSegment(1.0, (source,))])
            for _, _, source in problems
        ]

        def solve(index):
            mesh, boundaries, source = problems[index]
            steady = SteadyStateSolver(mesh, boundaries).solve([source])
            transient = TransientSolver(mesh, boundaries).solve(
                schedules[index], dt_s=0.5
            )
            return steady.temperatures_c, transient.final_map.temperatures_c

        clear_factorization_cache()
        reference = [solve(index) for index in range(len(problems))]
        rounds, threads_count = 6, 8
        results, errors = [], []
        before = factorization_cache_stats()

        def worker(offset):
            try:
                for step in range(rounds):
                    index = (offset + step) % len(problems)
                    results.append((index, solve(index)))
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(threads_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == rounds * threads_count
        for index, (steady, final) in results:
            np.testing.assert_array_equal(steady, reference[index][0])
            np.testing.assert_array_equal(final, reference[index][1])
        after = factorization_cache_stats()
        # One steady factor and one stepper request per solve.
        requests = 2 * len(results)
        assert (after["built"] - before["built"]) + (
            after["reused"] - before["reused"]
        ) == requests
        assert after["entries"] <= 8


@pytest.fixture
def slow_factorizations(monkeypatch):
    """Spy on :class:`BandedCholesky`: the threads that construct one, and
    an event set when the first construction starts (which then takes
    long enough for a second thread to arrive while it is in flight)."""
    import repro.thermal.factorization as factorization_module

    original = factorization_module.BandedCholesky
    builders, started = [], threading.Event()

    def slow_factor(matrix):
        builders.append(threading.current_thread())
        started.set()
        time.sleep(0.2)
        return original(matrix)

    monkeypatch.setattr(factorization_module, "BandedCholesky", slow_factor)
    return builders, started


def race(request, started):
    """``request()`` on two threads, the second started once the first is
    factorising; each thread's result, or the exception it raised."""
    outcomes = [None, None]

    def call(index):
        try:
            outcomes[index] = request()
        except Exception as error:  # compared below
            outcomes[index] = error

    first = threading.Thread(target=call, args=(0,))
    first.start()
    assert started.wait(timeout=30)
    second = threading.Thread(target=call, args=(1,))
    second.start()
    for thread in (first, second):
        thread.join(timeout=60)
        assert not thread.is_alive()
    return outcomes


class TestSingleFlight:
    """Threads asking for one entry at once share one build."""

    def test_one_operator_factor(self, slow_factorizations):
        builders, started = slow_factorizations
        cache = FactorizationCache()
        mesh, boundaries, _ = slab()
        entry = cache.operator(mesh, boundaries)
        outcomes = race(
            lambda: cache.factorize(entry.operator.matrix, entry.key), started
        )
        assert len(builders) == 1
        assert cache.built == 1 and cache.reused == 1
        (first, _, first_reused), (second, _, second_reused) = outcomes
        assert first is second is entry.factor
        assert sorted([first_reused, second_reused]) == [False, True]

    def test_one_stepper(self, slow_factorizations):
        builders, started = slow_factorizations
        cache = FactorizationCache()
        mesh, boundaries, _ = slab()
        entry = cache.operator(mesh, boundaries)
        capacitance = mesh.capacitance_vector()
        outcomes = race(
            lambda: cache.stepper(entry, capacitance, 1.0, 0.5), started
        )
        assert len(builders) == 1
        assert cache.built == 1 and cache.reused == 1
        assert outcomes[0] is outcomes[1]
        assert outcomes[0].factor is not None and outcomes[0].explicit is not None
        assert cache.stats()["kinds"]["stepper"] == 1

    def test_a_failed_factor_reaches_every_waiter_and_leaves_no_entry(
        self, slow_factorizations
    ):
        builders, started = slow_factorizations
        cache = FactorizationCache()
        indefinite = -stencil_operator((3, 4, 5), 4)
        outcomes = race(lambda: cache.factorize(indefinite), started)
        assert all(isinstance(outcome, SolverError) for outcome in outcomes)
        assert len(builders) == 1
        assert cache.built == 0 and len(cache) == 0
        # Nothing is left in flight either: the next caller builds again.
        with pytest.raises(SolverError, match="not positive definite"):
            cache.factorize(indefinite)
        assert len(builders) == 2

    def test_a_failed_stepper_reaches_every_waiter_and_leaves_no_entry(
        self, slow_factorizations
    ):
        builders, started = slow_factorizations
        cache = FactorizationCache()
        # C/dt + K with a negative definite K and a negligible C.
        operator = types.SimpleNamespace(matrix=-stencil_operator((3, 4, 5), 4))
        entry = CacheEntry("indefinite", operator=operator, matrix_key="indefinite")
        capacitance = np.full(60, 1.0e-9)
        outcomes = race(
            lambda: cache.stepper(entry, capacitance, 1.0, 1.0), started
        )
        assert all(isinstance(outcome, SolverError) for outcome in outcomes)
        assert len(builders) == 1
        assert cache.built == 0 and cache.reused == 0 and len(cache) == 0
