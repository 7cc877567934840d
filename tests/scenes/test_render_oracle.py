"""``Scene.render_stereo`` renders its canvas once and equals two renders.

The oracle is the two-call pair ``render_stereo`` used to be: one
:meth:`Scene.render` per eye, each composing the same canvas.  Floats
are compared byte for byte against it in one process; across hosts the
sRGB codes are pinned instead, because the float frames' last bits
follow the host's SIMD ``sin``.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.color.srgb import encode_srgb8
from repro.scenes.library import SCENE_NAMES, Scene, get_scene


def render_stereo_twice(scene: Scene, height: int, width: int, frame: int = 0):
    """The (left, right) pair as two full renders, one per eye."""
    return (
        scene.render(height, width, frame, eye="left"),
        scene.render(height, width, frame, eye="right"),
    )


#: SHA-256 of both eyes' ``encode_srgb8`` codes (left, then right) of
#: ``render_stereo(height, width, frame=5)``, recorded with the
#: two-render ``render_stereo``.
PINNED = {
    ("office", 512, 512): "f2adc20ee2a2b250d43c451ed013087fddbc32248dee4ab581d7cfe6337e18d5",
    ("office", 96, 96): "48b20457b42ce3826e24049d933d91e815ea42c59a948c5a4b4d5cedf1f9cc33",
    ("office", 33, 47): "26efaf4fb7d40cd28c4b937a092e152406e2cbc922192b68d5abc50e97ddb749",
    ("office", 8, 8): "37573a5e8f5adea8a03170acff81ba8f455f7f251c266cfe2f346ba675cf9b40",
    ("fortnite", 512, 512): "0a57f88c295a6b1cc73ad1f81a7dbdcac41f5d0f169fea1531309f65363e6fc0",
    ("fortnite", 96, 96): "d474168ea236c050e3683934b732fe6152a4ed6109b798cea0fb1b7f8cfd2b7b",
    ("fortnite", 33, 47): "f4f3cdb75e1a80b8ed78831cf9f0110baaa88fe0d7338ff8adf8e5efcf44f442",
    ("fortnite", 8, 8): "fa20614976e9a6f3673723648c10a17755144acf0f66c07352cba299bdd63ae2",
    ("skyline", 512, 512): "c12255d6c29831a275794e363074a62ce564304955e5b78b58a8345399bb4c74",
    ("skyline", 96, 96): "17ed9b10e06b4d50f517325d2d43f9dfe56ec93e31cec54f7a7c3790e706eb9d",
    ("skyline", 33, 47): "120ef994815f57c97fc8be7d48755849d00d6cf459a7eaf5c4b257cc9622590f",
    ("skyline", 8, 8): "ccdbc62f6397719fab85cf539ed54a32e70fab9cf82cf5aea05144f02451bd81",
    ("dumbo", 512, 512): "c671e3870dae6d996235d68f98643e7667fa521c8c6cedfb29fcc9f1e03d6384",
    ("dumbo", 96, 96): "76e3f9bee651a336cf9c2827ee10b45bb38e75ad0e73575aa497fd0b5a4edb11",
    ("dumbo", 33, 47): "bd11b7229fc2f86e235f29644b843a634aa7d2a5c1a74efe1f5fea8beebe766f",
    ("dumbo", 8, 8): "c128fe36c400ab719b11e2cec3859a4b6635a3f405272cb849f9c40ad79554e0",
    ("thai", 512, 512): "b8b5e40895b4285ad24b274188c321be13bc730615e642eeb83ba41a79b9076f",
    ("thai", 96, 96): "02518e994f8993df0673596f84077a12c3f291779ec1f2d68ccc60f9a9ad3089",
    ("thai", 33, 47): "fbd0ab0a17e29b8b51bd4de4ea4e74789b14889e9530d4cbb483978bcbe35011",
    ("thai", 8, 8): "91fff1a98b3d297fc1f1169b30feda925ba1c24ffb761ea05a1bb0c20892ab79",
    ("monkey", 512, 512): "b6677feaa1cb03c5decfded01839b4bfbef1ca381994579de56b87eaf02af0de",
    ("monkey", 96, 96): "35ef8049be13c79a8c7326bca9e7185ffa0b26e40dad55f27665f241c6e7386c",
    ("monkey", 33, 47): "fc2d65fe4f4bd190b5a98508a57e93563f82bb01dd3a6dbd69fce5fc7f146474",
    ("monkey", 8, 8): "10a73f21c5481c5f8545e27024e975625e0cb6738f71420f3fc8f9f1d5c321f2",
}


def test_pins_cover_every_scene_at_every_size():
    assert sorted(PINNED) == sorted(
        (name, *size) for name in SCENE_NAMES for size in ((512, 512), (96, 96), (33, 47), (8, 8))
    )


@pytest.mark.parametrize("name,height,width", sorted(PINNED))
def test_stereo_pair_equals_two_renders_and_its_pin(name, height, width):
    scene = get_scene(name)
    left, right = scene.render_stereo(height, width, frame=5)
    for eye, expected in zip((left, right), render_stereo_twice(scene, height, width, 5)):
        assert eye.dtype == expected.dtype and eye.shape == expected.shape
        assert eye.tobytes() == expected.tobytes()
    codes = encode_srgb8(left).tobytes() + encode_srgb8(right).tobytes()
    assert hashlib.sha256(codes).hexdigest() == PINNED[name, height, width]


def test_stereo_renders_one_canvas():
    thai = get_scene("thai")
    canvas_widths = []

    def counting(height, width, rng, phase):
        canvas_widths.append(width)
        return thai.renderer(height, width, rng, phase)

    left, right = replace(thai, renderer=counting).render_stereo(24, 40, frame=1)
    assert canvas_widths == [40 + 2 * 1]
    assert np.array_equal(left, thai.render(24, 40, 1, eye="left"))
    assert np.array_equal(right, thai.render(24, 40, 1, eye="right"))


@pytest.mark.parametrize(
    "height,width,frame,message",
    [(4, 16, 0, "at least 8x8"), (16, 7, 0, "at least 8x8"), (16, 16, -1, "frame index")],
)
def test_stereo_keeps_render_input_checks(height, width, frame, message):
    with pytest.raises(ValueError, match=message):
        get_scene("office").render_stereo(height, width, frame)
