"""The kernel equivalence contract: the fast path is bit-exact vs reference.

Every backend must produce bit-for-bit identical dequantized values.  This
suite sweeps the full :func:`repro.fidelity.sweep.bdr_design_space` grid,
all rounding modes, non-divisible axis lengths (the padding path),
non-trailing axes, empty inputs, all-zero blocks, extreme dynamic ranges
(subnormal and near-overflow data), and the software-scaled INT/VSQ paths
with and without scale overrides.

The numpy backend has two nearest-rounding bodies for pow2-scaled and
fp32-scaled (INT, VSQ) configs: the compiled kernel
(:mod:`repro.kernels.compiled`) and the numpy code that runs where it did
not load.  The compiled pow2 body is itself two: an AVX2 body, which serves
the geometries it covers on CPUs with AVX2, and a scalar C body for every
other call.  The fast side of every comparison runs on all three, the
scalar C body and the numpy body forced by the loader's test seams; they
must agree bit for bit (sign of zero included) and in memory layout, which
later BLAS products read.  The fast side must equal the reference bit for
bit too.
"""

import numpy as np
import pytest

from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize, bdr_quantize_detailed, bdr_quantize_partial
from repro.core.rounding import ROUNDING_MODES
from repro.core.scaling import exponent_range
from repro.fidelity.distributions import sample
from repro.fidelity.sweep import bdr_design_space
from repro.kernels import compiled, get_backend, use_backend

DESIGN_SPACE = bdr_design_space()

SOFTWARE_CONFIGS = [
    BDRConfig.int_sw(m=7, k1=64),
    BDRConfig.int_sw(m=3, k1=16),
    BDRConfig.int_sw(m=7, k1=1024),
    BDRConfig.vsq(m=5, d2=6, k1=64, k2=16),
    BDRConfig.vsq(m=3, d2=4, k1=32, k2=8),
    BDRConfig.vsq(m=7, d2=10, k1=1024, k2=16),
]

REPRESENTATIVE = [
    BDRConfig.mx(m=7),
    BDRConfig.mx(m=4),
    BDRConfig.mx(m=2),
    BDRConfig.bfp(m=7, k1=16),
    BDRConfig.bfp(m=3, k1=8),
] + SOFTWARE_CONFIGS


#: pow2 points off the sweep grid: 1,024 sub-blocks per block, blocks (and
#: sub-blocks) of one element, and a pow2 block scale over an INT sub-scale,
#: which every body quantizes at one level
EDGE_CONFIGS = [
    BDRConfig(m=3, k1=1024, d1=8, k2=1, d2=1, ss_type="pow2"),
    BDRConfig(m=4, k1=1, d1=8, k2=1, d2=1, ss_type="pow2"),
    BDRConfig.bfp(m=5, k1=1),
    BDRConfig(m=4, k1=16, d1=8, s_type="pow2", k2=2, d2=3, ss_type="int"),
]

POW2_CONFIGS = [c for c in REPRESENTATIVE if c.s_type == "pow2"] + EDGE_CONFIGS


def assert_same_bits(a, b, msg=""):
    """Equal bit patterns (so ``-0.0 != 0.0``) and equal memory layout."""
    assert a.shape == b.shape and a.strides == b.strides, msg
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=msg)


def fast_side(run, label=""):
    """``run()`` on the numpy backend, once per body (the compiled kernel as
    dispatched, its scalar C body, the numpy body); the bodies must agree
    bit for bit.  Returns the dispatched kernel's output."""
    with use_backend("numpy"):
        fast = run()
        with compiled._scalar_body():
            scalar = run()
        with compiled._numpy_body():
            slow = run()
    assert_same_bits(fast, scalar, f"{label} scalar C body")
    assert_same_bits(fast, slow, f"{label} numpy body")
    return fast


def both_backends(x, config, **kwargs):
    with use_backend("reference"):
        ref = bdr_quantize(x, config, **kwargs)
    fast = fast_side(lambda: bdr_quantize(x, config, **kwargs), config.label)
    return ref, fast


def assert_bit_exact(x, config, **kwargs):
    """Fast equals reference in bit patterns (so ``-0.0 != 0.0``)."""
    ref, fast = both_backends(x, config, **kwargs)
    np.testing.assert_array_equal(ref.view(np.int64), fast.view(np.int64),
                                  err_msg=config.label)


def requires_kernel():
    if compiled.kernel_path() is None:
        pytest.skip("the compiled kernel is not loaded here")


@pytest.mark.parametrize("config", DESIGN_SPACE, ids=lambda c: c.label)
def test_full_design_space_divisible(config):
    """Every pow2/pow2 grid point, divisible axis (the pure-view path)."""
    rng = np.random.default_rng(hash(config.label) % 2**32)
    x = rng.normal(size=(3, 4 * config.k1)) * np.exp2(
        rng.integers(-40, 40, size=(3, 1)).astype(np.float64)
    )
    assert_bit_exact(x, config)


@pytest.mark.parametrize("config", DESIGN_SPACE[:: 7], ids=lambda c: c.label)
def test_design_space_padding_path(config):
    """Non-divisible axis lengths exercise the zero-padding path."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3 * config.k1 + 1))
    assert_bit_exact(x, config)
    assert_bit_exact(rng.normal(size=(2, 13)), config)


@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
@pytest.mark.parametrize("mode", ROUNDING_MODES)
def test_rounding_modes(config, mode):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2 * config.k1 + 5))
    with use_backend("reference"):
        ref = bdr_quantize(x, config, rounding=mode, rng=np.random.default_rng(11))
    fast = fast_side(
        lambda: bdr_quantize(x, config, rounding=mode, rng=np.random.default_rng(11)),
        f"{config.label} {mode}",
    )
    np.testing.assert_array_equal(ref.view(np.int64), fast.view(np.int64),
                                  err_msg=f"{config.label} {mode}")


@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_non_trailing_axes(config, axis):
    rng = np.random.default_rng(3)
    shape = [3, 4, 5]
    shape[axis] = 2 * config.k1 + 1  # blocks + padding along the chosen axis
    x = rng.normal(size=shape)
    assert_bit_exact(x, config, axis=axis)
    assert_bit_exact(x, config, axis=axis - 3)  # negative-axis spelling


@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
def test_empty_input(config):
    ref, fast = both_backends(np.zeros((0, 16)), config)
    assert ref.shape == fast.shape == (0, 16)
    # bdr_quantize returns early on no elements; the backend's entry points
    # must too, whatever the block axis (the compiled wrappers decline such
    # inputs rather than divide by a zero extent)
    for shape, axis in [((4, 0), -1), ((0, 16), 0), ((3, 0, 5), 1), ((3, 5, 0), 1)]:
        x = np.zeros(shape)
        with use_backend("reference"):
            ref = get_backend().quantize(x, config, axis, "nearest", None, None, False)
        label = f"{config.label} {shape} axis={axis}"
        assert_same_bits(fast_side(lambda: get_backend().quantize(
            x, config, axis, "nearest", None, None, False), label), ref, label)
        assert_same_bits(fast_side(lambda: get_backend().quantize_partial(
            x, config, axis, "nearest", None), label), ref, label)


@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
def test_all_zero_blocks(config):
    x = np.zeros((3, 2 * config.k1))
    ref, fast = both_backends(x, config)
    np.testing.assert_array_equal(fast, 0.0)
    np.testing.assert_array_equal(ref, fast)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf/0 corners
@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
def test_mixed_zero_and_extreme_blocks(config):
    """Zero sub-blocks next to subnormal and near-overflow data."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 2 * config.k1))
    x[0] = 0.0
    x[1] *= 1e-320  # subnormal magnitudes
    x[2] *= 1e307   # near the top of the exponent range
    x[3, : config.k1] = 0.0
    x[4] *= 1e-45
    assert_bit_exact(x, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf/NaN
@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_non_finite_blocks_match_reference(config, poison):
    """Blocks holding inf/NaN must still match the reference path exactly
    (the fast backend hands them back to the reference engine)."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 2 * config.k1))
    x[1, 1] = poison
    ref, fast = both_backends(x, config)
    np.testing.assert_array_equal(ref, fast, err_msg=config.label)
    # rows without the poison stay quantized normally
    clean_ref, clean_fast = both_backends(x[2:], config)
    np.testing.assert_array_equal(clean_ref, clean_fast)


@pytest.mark.parametrize(
    "config", SOFTWARE_CONFIGS, ids=lambda c: c.label
)
@pytest.mark.parametrize("override", [0.25, 1.0, 3.7e-3])
def test_scale_override_paths(config, override):
    """Delayed-scaling overrides: scalar stays a broadcast view throughout."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2 * config.k1))
    assert_bit_exact(x, config, scale_override=override)


@pytest.mark.parametrize(
    "config", [BDRConfig.int_sw(m=7), BDRConfig.vsq(m=5, d2=6)], ids=["int8", "vsq6"]
)
def test_sweep_geometry_with_scalar_override(config):
    """The Figure 7 sweep's own call: a (256, 256) chunk along axis -1, each
    row zero-padded into one k1 = 1024 block, scaled by delayed scaling's
    scalar override (here from the chunk's own amax, as a first call)."""
    x = sample("variable_normal", np.random.default_rng(18), 256, 256)
    qmax = config.qmax * ((1 << config.d2) - 1 if config.ss_type == "int" else 1)
    assert config.k1 > x.shape[-1]
    assert_bit_exact(x, config, scale_override=float(np.abs(x).max()) / qmax)


@pytest.mark.parametrize("config", REPRESENTATIVE, ids=lambda c: c.label)
def test_detailed_decomposition_matches(config):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 2 * config.k1 + 3))
    with use_backend("reference"):
        ref = bdr_quantize_detailed(x, config)
    with use_backend("numpy"):
        fast = bdr_quantize_detailed(x, config)
    np.testing.assert_array_equal(ref.values, fast.values)
    np.testing.assert_array_equal(ref.codes, fast.codes)
    np.testing.assert_array_equal(ref.scale, fast.scale)
    np.testing.assert_array_equal(ref.step, fast.step)
    if ref.sub_scale is None:
        assert fast.sub_scale is None
    else:
        np.testing.assert_array_equal(ref.sub_scale, fast.sub_scale)


@pytest.mark.parametrize("config", DESIGN_SPACE[::5], ids=lambda c: c.label)
def test_partial_block_entry_bit_exact(config):
    """The decode-path partial-block entry == the generic quantize, on both
    backends (and both pow2 bodies), for every partial length up to one
    full block."""
    rng = np.random.default_rng(9)
    for length in {1, config.k1 // 2 or 1, config.k1}:
        x = rng.normal(size=(3, length)) * np.exp2(
            rng.integers(-40, 40, size=(3, 1)).astype(np.float64)
        )
        label = f"{config.label} len={length}"
        with use_backend("reference"):
            generic = bdr_quantize(x, config)
            partial = bdr_quantize_partial(x, config)
        np.testing.assert_array_equal(generic, partial, err_msg=f"{label} reference")
        generic = fast_side(lambda: bdr_quantize(x, config), label)
        partial = fast_side(lambda: bdr_quantize_partial(x, config), label)
        np.testing.assert_array_equal(generic, partial, err_msg=f"{label} numpy")


def test_partial_block_entry_rejects_overlong_axis():
    config = BDRConfig.mx(m=4, k1=16)
    with pytest.raises(ValueError, match="k1"):
        bdr_quantize_partial(np.zeros((2, 17)), config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf corner
def test_partial_block_nonfinite_falls_back_to_reference():
    config = BDRConfig.mx(m=4, k1=16)
    x = np.ones((2, 8))
    x[0, 3] = np.inf
    with use_backend("reference"):
        ref = bdr_quantize(x, config)
    part = fast_side(lambda: bdr_quantize_partial(x, config))
    np.testing.assert_array_equal(ref, part)


def test_small_array_plan_free_path_bit_exact():
    """Small inputs route through the plan-free kernel; still bit-exact."""
    rng = np.random.default_rng(10)
    for config in REPRESENTATIVE:
        for shape in [(1, 1, 24), (2, 3, 5), (1, config.k1 * 2 + 1)]:
            x = rng.normal(size=shape)
            assert_bit_exact(x, config)
            assert_bit_exact(x, config, axis=0)


def test_fast_values_match_detailed_reconstruction():
    """codes * step from the reference decomposition reproduces the fast
    path's dequantized values exactly."""
    rng = np.random.default_rng(7)
    config = BDRConfig.mx(m=4)
    x = rng.normal(size=(4, 64))
    with use_backend("reference"):
        detail = bdr_quantize_detailed(x, config)
    fast = fast_side(lambda: bdr_quantize(x, config))
    reconstructed = (detail.codes * detail.step).reshape(x.shape)
    np.testing.assert_array_equal(reconstructed, fast)


# ----------------------------------------------------------------------
# The compiled pow2 body: geometry, edge configs, and its agreement with
# the numpy body over the design space
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", POW2_CONFIGS, ids=lambda c: c.label)
@pytest.mark.parametrize("shape", [(3, 5, 7), (2, 3, 4, 5)], ids=["3d", "4d"])
def test_every_axis_of_3d_and_4d_inputs(config, shape):
    rng = np.random.default_rng(12)
    for axis in range(len(shape)):
        grown = list(shape)
        grown[axis] = 2 * config.k1 + 3  # whole blocks plus a partial one
        x = rng.normal(size=grown) * np.exp2(rng.integers(-30, 30, size=grown))
        assert_bit_exact(x, config, axis=axis)
        assert_bit_exact(x, config, axis=axis - len(shape))


@pytest.mark.parametrize("config", POW2_CONFIGS, ids=lambda c: c.label)
def test_non_contiguous_inputs(config):
    """Transposed, strided and offset views: the kernel reads a contiguous
    copy, and the output's layout still follows the numpy body's."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(6, 2 * config.k1 + 5, 4))
    views = [base.T, base[:, ::2], base[1:, 3:-1, ::3], np.asfortranarray(base),
             base.transpose(1, 0, 2)]
    for x in views:
        assert not x.flags.c_contiguous
        # short axes would pad each element to a k1=1024 block on the
        # reference side; the long one covers that config
        axes = range(x.ndim) if config.k1 <= 64 else [int(np.argmax(x.shape))]
        for axis in axes:
            assert_bit_exact(x, config, axis=axis)


@pytest.mark.parametrize("config", POW2_CONFIGS, ids=lambda c: c.label)
def test_partial_block_every_length(config):
    """quantize_partial at lengths 1..k1, trailing and middle axes."""
    rng = np.random.default_rng(14)
    for length in range(1, config.k1 + 1):
        for shape, axis in [((3, length), -1), ((2, length, 3), 1)]:
            x = rng.normal(size=shape)
            with use_backend("reference"):
                ref = bdr_quantize(x, config, axis=axis)
            fast = fast_side(lambda: bdr_quantize_partial(x, config, axis=axis),
                             f"{config.label} len={length}")
            np.testing.assert_array_equal(ref, fast, err_msg=f"{config.label} len={length}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf/NaN
@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_compiled_kernel_declines_non_finite_blocks(poison):
    """A block holding inf/NaN makes the kernel decline the whole call; the
    backend then runs the numpy body, which hands it to the reference."""
    requires_kernel()
    config = BDRConfig.mx(m=4)
    x = np.random.default_rng(15).normal(size=(3, 40))
    assert compiled.pow2_nearest(x, config, -1, False) is not None
    x[2, 37] = poison  # in the last, partial block
    assert compiled.pow2_nearest(x, config, -1, False) is None
    ref, fast = both_backends(x, config)
    np.testing.assert_array_equal(ref, fast)


def test_compiled_kernel_widens_other_dtypes():
    """The kernel reads doubles: a float32 input is widened before its
    pointer reaches C, and quantizes to the float64 input's bits."""
    requires_kernel()
    x = np.random.default_rng(17).normal(size=(3, 40)).astype(np.float32)
    config = BDRConfig.mx(m=4)
    assert_same_bits(compiled.pow2_nearest(x, config, -1, False),
                     compiled.pow2_nearest(x.astype(np.float64), config, -1, False))


def _value_kinds(rng, shape):
    x = rng.normal(size=shape)
    signed_zeros = x.copy()
    signed_zeros.flat[::3] = 0.0
    signed_zeros.flat[1::3] = -0.0
    huge = x * 1e300
    huge.flat[::2] = -1e300
    return {
        "normal": x,
        "wide": x * np.exp2(rng.integers(-60, 60, size=shape)),
        "signed_zeros": signed_zeros,
        "subnormal": x * 1e-310,
        "tiny": -np.abs(x) * 1e-30,  # np.rint alone rounds it to -0.0
        "huge": huge,
    }


@pytest.mark.parametrize("config", DESIGN_SPACE + EDGE_CONFIGS, ids=lambda c: c.label)
def test_bodies_bitwise_equal_over_design_space(config):
    """The compiled body equals the numpy body bit for bit (``int64`` views,
    so the sign of zero counts) and in layout, on every sweep point and
    every edge config."""
    requires_kernel()
    rng = np.random.default_rng(16)
    for shape, axis in [((3, 2 * config.k1 + 1), -1), ((5, config.k1 + 2, 2), 1),
                        ((config.k1, 3), 0)]:
        for kind, x in _value_kinds(rng, shape).items():
            label = f"{config.label} {shape} axis={axis} {kind}"
            fast_side(lambda: bdr_quantize(x, config, axis=axis), label)
            fast_side(lambda: bdr_quantize_partial(x[..., :1], config, axis=-1), label)


# ----------------------------------------------------------------------
# The compiled pow2 body's AVX2 and scalar C bodies, geometry by geometry
# ----------------------------------------------------------------------
#: the widest d1 the numpy body accepts (exponents -511 to 512), at one and
#: two scaling levels
WIDE_D1_CONFIGS = [
    BDRConfig(m=4, k1=16, d1=10, k2=2, d2=1, ss_type="pow2"),
    BDRConfig.bfp(m=7, k1=16, d1=10),
]


def cpu_has_avx2():
    """Whether /proc/cpuinfo lists AVX2: read apart from the kernel's own
    check, so a broken dispatch cannot excuse itself."""
    try:
        with open("/proc/cpuinfo") as info:
            return any("avx2" in line.split() for line in info if line.startswith("flags"))
    except OSError:
        return False


def _clamp_values(rng, shape, config):
    """Magnitudes at, just inside and past the config's exponent clamps,
    exact powers of two among them."""
    lo, hi = exponent_range(config.d1)
    exps = rng.choice([lo - 3, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1], size=shape)
    mantissa = np.where(rng.random(shape) < 0.3, 1.0, 1.0 + rng.random(shape))
    return rng.choice([-1.0, 1.0], size=shape) * np.ldexp(mantissa, exps)


def _grid_kinds(rng, shape, config):
    kinds = _value_kinds(rng, shape)
    del kinds["normal"], kinds["tiny"]  # "wide" and "signed_zeros" cover them
    kinds["clamps"] = _clamp_values(rng, shape, config)
    return kinds


def _grid(config):
    """(shape, axis) pairs: trailing-axis rows of full blocks, of a partial
    block after full ones, shorter than k1 and shorter than a vector, and
    every inner extent from 1 to 13 along a middle axis."""
    k1 = config.k1
    trailing = [(3, k1), (3, 2 * k1 + 1), (2, max(k1 - 1, 1)), (5, 3), (4, 4 * k1 + 6)]
    return ([(shape, -1) for shape in trailing]
            + [((2, k1 + 3, inner), 1) for inner in range(1, 14)])


def assert_bodies_agree(x, config, axis, label):
    """The kernel as dispatched equals its scalar C body, bits and strides,
    in both output layouts."""
    for c_order in (False, True):
        fast = compiled.pow2_nearest(x, config, axis, c_order)
        with compiled._scalar_body():
            scalar = compiled.pow2_nearest(x, config, axis, c_order)
        assert fast is not None and scalar is not None, label
        assert_same_bits(fast, scalar, f"{label} c_order={c_order}")


@pytest.mark.parametrize("config", DESIGN_SPACE + EDGE_CONFIGS + WIDE_D1_CONFIGS,
                         ids=lambda c: c.label)
def test_avx2_and_scalar_bodies_bitwise_equal(config):
    """The AVX2 body equals the scalar C body on every sweep point, edge
    config and the widest d1: trailing full and partial blocks (n < k1 and
    n % 4 != 0 too), inner extents 1 to 13, both output layouts, and values
    with signed zeros, subnormals, huge magnitudes and maxima at the
    exponent clamps."""
    requires_kernel()
    rng = np.random.default_rng(22)
    for shape, axis in _grid(config):
        for kind, x in _grid_kinds(rng, shape, config).items():
            assert_bodies_agree(x, config, axis, f"{config.label} {shape} axis={axis} {kind}")


@pytest.mark.parametrize("config", POW2_CONFIGS + WIDE_D1_CONFIGS, ids=lambda c: c.label)
def test_avx2_geometries_match_reference(config):
    """The grid's geometries, transposed inputs among them, against the
    reference backend on all three bodies."""
    rng = np.random.default_rng(23)
    for shape, axis in _grid(config):
        x = _clamp_values(rng, shape, config)
        x.flat[::5] = -0.0
        assert_bit_exact(x, config, axis=axis)
        if x.ndim == 3 and config.k1 <= 64:
            assert_bit_exact(x.T, config, axis=1)  # a (inner, n, 2) view


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf/NaN
@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_one_non_finite_block_among_finite_ones_declines_on_both_bodies(poison):
    """A single inf or NaN in a middle block makes both C bodies decline the
    whole call, along every geometry the AVX2 body covers; the backend's
    answer still equals the reference."""
    requires_kernel()
    rng = np.random.default_rng(24)
    for config in (BDRConfig.mx(m=4), BDRConfig.bfp(m=7, k1=16),
                   BDRConfig(m=3, k1=32, d1=8, k2=8, d2=2, ss_type="pow2")):
        for shape, axis, where in [((3, 4 * config.k1), -1, (1, config.k1 + 5)),
                                   ((4 * config.k1, 6), 0, (config.k1 + 5, 4)),
                                   ((2, 3 * config.k1, 5), 1, (1, config.k1 + 1, 2))]:
            x = rng.normal(size=shape)
            x[where] = poison
            for c_order in (False, True):
                assert compiled.pow2_nearest(x, config, axis, c_order) is None
                with compiled._scalar_body():
                    assert compiled.pow2_nearest(x, config, axis, c_order) is None
            ref, fast = both_backends(x, config, axis=axis)
            np.testing.assert_array_equal(ref, fast)


def test_avx2_body_serves_the_geometries_it_covers():
    """Where the CPU has AVX2, the vector body serves trailing-axis blocks
    (k1 a multiple of 4; k2 of 1, 2 or a multiple of 4) and fibers along
    other axes (k1 <= 256 into the block-last layout); the scalar C body
    serves every other call, and every call under its seam."""
    requires_kernel()
    if not cpu_has_avx2():
        pytest.skip("no AVX2 on this CPU: the scalar C body serves every call")
    rng = np.random.default_rng(25)
    mx6, k3 = BDRConfig.mx(m=4), BDRConfig(m=2, k1=12, d1=8, k2=3, d2=1, ss_type="pow2")
    wide_block = EDGE_CONFIGS[0]  # k1 = 1024, k2 = 1
    cases = [
        (mx6, (6, 40), -1, False, "avx2"),
        (mx6, (40, 6), 0, False, "avx2"),
        (mx6, (40, 6), 0, True, "avx2"),
        (BDRConfig.bfp(m=7, k1=16), (2, 40, 3), 1, False, "avx2"),
        (wide_block, (2, 1030), -1, False, "avx2"),
        (wide_block, (1030, 2), 0, True, "avx2"),
        (wide_block, (1030, 2), 0, False, "scalar"),
        (BDRConfig.bfp(m=5, k1=1), (3, 7), -1, False, "scalar"),
        (BDRConfig.bfp(m=5, k1=1), (7, 3), 0, False, "avx2"),
        (k3, (3, 24), -1, False, "scalar"),
        (k3, (24, 3), 0, False, "avx2"),
    ]
    for config, shape, axis, c_order, body in cases:
        x = rng.normal(size=shape)
        assert compiled.pow2_nearest(x, config, axis, c_order) is not None
        assert compiled.last_pow2_body() == body, (config.label, shape, axis, c_order)
        with compiled._scalar_body():
            compiled.pow2_nearest(x, config, axis, c_order)
            assert compiled.last_pow2_body() == "scalar"


# ----------------------------------------------------------------------
# The compiled FP32-scaled body (scaled INT, VSQ) against the numpy body
# ----------------------------------------------------------------------
#: software-scaled points off the named formats: an fp32 block scale over a
#: pow2 sub-scale (one level, as in every body) and 1,024 VSQ sub-blocks
SCALED_CONFIGS = SOFTWARE_CONFIGS + [
    BDRConfig(m=4, k1=16, d1=8, s_type="fp32", k2=2, d2=1, ss_type="pow2"),
    BDRConfig.vsq(m=4, d2=3, k1=1024, k2=1),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # zero and overflowing scales
@pytest.mark.parametrize("config", SCALED_CONFIGS, ids=lambda c: c.label)
@pytest.mark.parametrize("override", [None, 3.7e-3, 0.0, -0.5, 1e-50])
def test_scaled_bodies_bitwise_equal(config, override):
    """The compiled FP32-scaled body equals the numpy body bit for bit and
    in layout: JIT and scalar override scales (zero and fp32 underflowing
    ones too; the body declines a negative one), trailing and middle axes,
    transposed inputs."""
    requires_kernel()
    rng = np.random.default_rng(19)
    for shape, axis in [((3, 2 * config.k1 + 1), -1), ((5, config.k1 + 2, 2), 1),
                        ((config.k1, 3), 0)]:
        for kind, x in _value_kinds(rng, shape).items():
            for view in (x, x.T):
                at = axis % x.ndim if view is x else x.ndim - 1 - axis % x.ndim
                label = f"{config.label} {shape} axis={at} {kind} {override}"
                fast_side(lambda: bdr_quantize(view, config, axis=at,
                                               scale_override=override), label)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf/NaN
@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_scaled_kernel_declines_non_finite_blocks_and_array_overrides(poison):
    """The FP32-scaled body declines a call with a block holding inf/NaN, or
    with an array-valued or negative override; the numpy body then runs it."""
    requires_kernel()
    rng = np.random.default_rng(20)
    for config in (BDRConfig.int_sw(m=7, k1=16), BDRConfig.vsq(m=3, d2=4, k1=32, k2=8)):
        x = rng.normal(size=(3, 40))
        per_row = np.full((3, 1), 0.05)
        assert compiled.scaled_nearest(x, config, -1, None) is not None
        assert compiled.scaled_nearest(x, config, -1, -0.0) is not None
        assert compiled.scaled_nearest(x, config, -1, per_row) is None
        assert compiled.scaled_nearest(x, config, -1, -0.05) is None
        assert_bit_exact(x, config, scale_override=per_row)
        assert_bit_exact(x, config, scale_override=-0.05)
        x[2, 37] = poison  # in the last, partial block
        for override in (None, 0.05):
            assert compiled.scaled_nearest(x, config, -1, override) is None
            ref, fast = both_backends(x, config, scale_override=override)
            np.testing.assert_array_equal(ref, fast)
