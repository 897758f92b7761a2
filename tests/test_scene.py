"""Scene layer: prompts, object templates, conditional mixtures."""

import re

import numpy as np
import pytest

from headlab.dataset import build_prompt_grid
from headlab.errors import UsageError
from headlab.scene import (ObjectSpec, Prompt, build_conditional_mixture,
                           dump_catalog, load_catalog, prompt_text)

from oracles import (completeness_probability, pattern_distribution,
                     template_stacks)


# ------------------------------------------------------------- prompts

def test_prompt_text_roundtrip():
    text = prompt_text(("owl", "vase"))
    assert text == "a owl and a vase"
    assert build_prompt_grid(("owl",), ("vase",)) == (
        Prompt(text=text, targets=("owl", "vase")),)


# ------------------------------------------------------------- templates

def test_default_catalog_shape(catalog):
    assert len(catalog) == 16
    for spec in catalog.values():
        assert len(spec.candidate_positions) == 2
        assert spec.sigma > 0


def test_placed_template_peaks_at_one(catalog):
    spec = catalog["cat"]
    pos = spec.candidate_positions[0]
    img = spec.placed_template(pos)
    assert img.shape == (16, 16)
    assert img[pos] == pytest.approx(1.0)
    assert img.max() == pytest.approx(1.0)
    assert img.min() >= 0.0


def test_filter_response_identifies_own_template(catalog):
    spec = catalog["bench"]
    image = spec.placed_template(spec.candidate_positions[1])
    responses = spec.filter_responses(image)
    assert responses[1] == pytest.approx(1.0, abs=1e-12)
    assert responses[0] < 0.5


def test_object_spec_validation():
    with pytest.raises(UsageError, match="^blob sigma must be positive"):
        ObjectSpec(object_id="x", sigma=-1.0,
                   candidate_positions=((1, 1),), grid_size=16)
    with pytest.raises(UsageError, match=r"^position \(99, 1\) outside 16x16"):
        ObjectSpec(object_id="x", sigma=1.0,
                   candidate_positions=((99, 1),), grid_size=16)
    with pytest.raises(UsageError, match="needs at least one position$"):
        ObjectSpec(object_id="x", sigma=1.0,
                   candidate_positions=(), grid_size=16)


# Widths whose square is not a finite positive float, or that are not one.
BAD_SIGMAS = ("nan", "1e200", "1e-200", "inf", "0", "-1")


def _bad_sigma(sigma: str) -> str:
    return ("blob sigma must be positive with a finite positive square, "
            f"got {float(sigma)}")


@pytest.mark.parametrize("sigma", BAD_SIGMAS)
def test_object_spec_needs_a_finite_positive_square_sigma(sigma):
    with pytest.raises(UsageError, match=f"^{re.escape(_bad_sigma(sigma))}$"):
        ObjectSpec(object_id="x", sigma=float(sigma),
                   candidate_positions=((1, 1),))


def test_object_spec_takes_the_widest_and_narrowest_sigma():
    for sigma in (1e154, 1e-154):
        spec = ObjectSpec(object_id="x", sigma=sigma,
                          candidate_positions=((1, 1),))
        assert np.isfinite(spec.placed_stack).all()


def test_catalog_text_roundtrip(tmp_path, catalog):
    path = tmp_path / "catalog.txt"
    dump_catalog(catalog, path)
    back = load_catalog(path)
    assert set(back) == set(catalog)
    for key in catalog:
        assert back[key] == catalog[key]


def test_load_catalog_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cat not-a-number 1,2\n", encoding="utf-8")
    with pytest.raises(UsageError, match=":1: bad sigma 'not-a-number'$"):
        load_catalog(path)


# ------------------------------------------------------------- mixtures

def test_mixture_enumerates_components(catalog):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    # per object: absent plus two positions = 3 choices
    assert len(mix.components) == 9
    assert sum(c.weight for c in mix.components) == pytest.approx(1.0, abs=1e-12)


def test_mixture_weights_match_presence_pattern(catalog):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    dist = pattern_distribution(mix)
    assert dist[(1, 1)] == pytest.approx(0.64, abs=1e-12)
    assert dist[(1, 0)] == pytest.approx(0.16, abs=1e-12)
    assert dist[(0, 1)] == pytest.approx(0.16, abs=1e-12)
    assert dist[(0, 0)] == pytest.approx(0.04, abs=1e-12)


def test_faithfulness_one_drops_absence(catalog):
    mix = build_conditional_mixture(("cat", "bench"), 1.0, catalog)
    assert len(mix.components) == 4       # only position choices remain
    assert completeness_probability(mix) == pytest.approx(1.0)


def test_completeness_is_product_of_faithfulness(catalog):
    q = 0.59 ** 0.5
    mix = build_conditional_mixture(("cat", "bench"), q, catalog)
    assert completeness_probability(mix) == pytest.approx(0.59, abs=1e-12)


def test_component_means_render_templates(catalog):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    assert mix.means_matrix.shape == (9, 256)
    for mean, comp in zip(mix.means_matrix, mix.components):
        expected = np.zeros((16, 16))
        for t, choice in zip(mix.targets, comp.position_choice):
            if choice is not None:
                expected += catalog[t].placed_template(
                    catalog[t].candidate_positions[choice])
        assert np.array_equal(mean, expected.ravel())


def test_mixture_validation_errors(catalog):
    with pytest.raises(UsageError, match="^mixture requested for an empty "):
        build_conditional_mixture((), 0.8, catalog)
    with pytest.raises(UsageError, match="^object 'ghost' not in catalog$"):
        build_conditional_mixture(("cat", "ghost"), 0.8, catalog)
    with pytest.raises(UsageError, match="^duplicate target in mixture "):
        build_conditional_mixture(("cat", "cat"), 0.8, catalog)
    for q in (0.0, 1.2):
        with pytest.raises(UsageError, match=rf"^faithfulness must be in "
                           rf"\(0, 1\], got {q}$"):
            build_conditional_mixture(("cat",), q, catalog)
    with pytest.raises(UsageError, match="^component variance must be "):
        build_conditional_mixture(("cat",), 0.8, catalog, s2=0.0)


def test_template_stack_zeroes_absent_components(catalog):
    mix = build_conditional_mixture(("cat", "bench"), 0.8, catalog)
    stack = template_stacks(mix)[mix.targets.index("cat")]
    for k, comp in enumerate(mix.components):
        if comp.position_choice[0] is not None:  # "cat" is target 0
            assert stack[k].max() == pytest.approx(1.0)
        else:
            assert np.all(stack[k] == 0.0)
