"""The bytes a sweep and ``ddmod verify-properties`` write, pinned.

Cut fig3 and fig4a sweeps, cut fig2a and fig2b sweeps (2 and 8 dB, 100
frames: the only sweeps whose rounds run several chunks, and at the 16x8
widths), and a 4x3 sweep of every decoder under both radius policies must
write the same CSV and JSON sidecar bytes, at one, two and three workers, as
the tree that pinned their SHA-256 digests.  ``ddmod verify-properties`` must
print the same 13 lines, and :func:`properties.run_all` return the same
worst errors to the last bit.  A change that means to move a result must
say why, and pin the new digests.  The digests hold for the BLAS they were
taken on, OpenBLAS 0.3.31; on another the tests skip.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from ddmod import cli, harness, properties


def _blas():
    """numpy's BLAS as ``(name, version)``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return str(blas.get("name")), str(blas.get("version"))


BLAS = _blas()
PINNED_BLAS = "openblas" in BLAS[0].lower() and f"{BLAS[1]}.".startswith("0.3.31.")
pinned = pytest.mark.skipif(
    not PINNED_BLAS, reason=f"digests pinned on OpenBLAS 0.3.31; numpy reports {' '.join(BLAS)}"
)


SWEEPS = {
    "fig3_cut": replace(harness.PRESETS["fig3"], ebn0_db_points=(0.0, 4.0, 8.0), max_frames=400),
    "fig4a_cut": replace(harness.PRESETS["fig4a"], max_frames=150),
    **{
        f"{name}_cut": replace(harness.PRESETS[name], ebn0_db_points=(2.0, 8.0), max_frames=100)
        for name in ("fig2a", "fig2b")
    },
    **{
        f"4x3_{decoder}_{policy}": harness.SweepConfig(
            m=3, n=4, alpha=0.8, beta=0.85, decoder=decoder, radius_policy=policy,
            ebn0_db_points=(0.0, 6.0, math.inf), omega_values=(0.5, 1.0), iterations=20,
            k_list=8, min_bit_errors=50, max_frames=120, master_seed=3,
        )
        for decoder in harness.DECODERS
        for policy in harness.RADIUS_POLICIES
    },
}

# name: (CSV, sidecar) SHA-256 digests
DIGESTS = {
    "fig3_cut": (
        "c5fdf4858373b921061f87b1b76e8e0e6488610b6a89cdb03d7fb154a5c08533",
        "98cfe4b35a5da8b8148c4bbd2c1942ae9bb37f6e39550ec7b81dc60b482c3b9d",
    ),
    "fig4a_cut": (
        "9b40c97528c12ad72cb9d128ba1a5ee8360d33ba9e4c244bad43916091b1c876",
        "b2151fb505d72cf617de5bdaee3aea26aa40970f36a26e0af862b8770e63394a",
    ),
    "fig2a_cut": (
        "7dc76aa09da4a7e805ce61429533222600699e135242cb052b75d1219ef883e0",
        "91cc4709f1dab0bd109ec9c1dd814006996e30f273275e15f8cfed8c741c731b",
    ),
    "fig2b_cut": (
        "18a566dcb36bcb00d8214967426d4099df1f19ff2218de16cc680bbe23192c07",
        "b5265d1b0daeef39468e630d05666dc3ee96baf69c08db2ee6e1465593e61c5a",
    ),
    "4x3_matched_im_init": (
        "277f4ec2ef314bd7ee657dc5d4ee8698215fc768da9300cabcac9e797dc904d2",
        "af382407632e83d94e5b8b54818edce893cf447aece5cbed8c5c45e26f1edb0d",
    ),
    "4x3_matched_infinite": (
        "f6aa4c35270a955afea77ae0798997b4e5d821a81eaa4fb8b7109697989c5229",
        "bac349514453183cf3823fe300dec37e9b59d7c6c8e0a2b4de25d8f0ee271804",
    ),
    "4x3_im_soft_im_init": (
        "aef82151277fef884b21075c1e4042e4475fcacf151ac5724a4493f78f9e1574",
        "0bda8fca21753b56c0127277ca6216e8a5e85f23550d93baaeb61b4b200b7770",
    ),
    "4x3_im_soft_infinite": (
        "9cb2ed0e8e2500da85346e815e6175270b9c3d2388997d241ee14a1f8ac907d5",
        "7ee900f5a01abedfd7b3ea6dda58a42c83ca85d3178ebe546cb79a652fded168",
    ),
    "4x3_sd2d_im_init": (
        "0b8015e4ea061b5b70306912a1e8608bbe164a46d1edd799e0fee56c56cc9f74",
        "8a793239ff8c14199501569b54105ee7735891dc0ad5d174215bb9c7c1ef92a0",
    ),
    "4x3_sd2d_infinite": (
        "c5f8d28138419496ea3757cdf4d567849dc78451233ab075f333fc6bfcbc1012",
        "7cc204738ccef431939358771fdd77246db5e6182270d18685f6d3ccb48348be",
    ),
    "4x3_sd2d_im_init_im_init": (
        "7bc291ef01b17c7468c1115f1f2c16bce06c5b17ea8802489b1b936ad7fd6bab",
        "d8730b3f3e922d0a504abd6bdc7aab0476ad39fee93d6f1b035371bb654fb8f0",
    ),
    "4x3_sd2d_im_init_infinite": (
        "288fa24a640c8beb819d51698625a2a5b60905d46266910adbd52a87a2469c9d",
        "42b55edd9e6d7592b957edf259b48c20668196119b9ae29234faa2644cf50241",
    ),
}


@pinned
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweeps_write_the_pinned_bytes(workers, tmp_path):
    got = {}
    for name, cfg in SWEEPS.items():
        paths = harness.emit_results(harness.run_sweep(cfg, workers=workers), tmp_path, stem=name)
        got[name] = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest() for path in paths)
    assert got == DIGESTS


@pinned
def test_verify_properties_prints_the_pinned_lines(capsys):
    assert cli.main(["verify-properties"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5ed30851a66c4165aad9cb478444f3bb2c861a87f03f92eb79a8ded18f43a71"
    )


@pinned
def test_property_checks_return_the_pinned_worst_errors():
    # verify-properties prints two decimals; this pins every bit of each
    # value, and not its Python type
    lines = "\n".join(f"{name} {float(worst).hex()}" for name, _, worst in properties.run_all())
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "3d5a8670c712294fe9f814feaa85f609f79c87a4c7e4fd2bddb58a81f345254f"
    )
