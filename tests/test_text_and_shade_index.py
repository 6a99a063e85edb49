"""The explicit-text parser and the shading's member index against rescans.

``TwoColoring.from_text`` reads an explicit colour line straight into the
red-neighbour masks; ``shading_reference.from_text`` is the parse that went
through the list of red pairs.  ``Shading`` indexes each shade's members at
construction; ``members``, ``residual`` and ``nonempty_shades`` must equal
rescans of the assignment.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import shading_reference as ref
from ramseydensity import colorings
from ramseydensity.colorings import BLUE, RED, Shading, TwoColoring
from test_cli import BAD_INPUTS, File


def explicit_text(rng, n, red_share):
    line = "".join(RED if rng.random() < red_share else BLUE for _ in range(n * (n - 1) // 2))
    return f"{n} explicit\n{line}\n"


SIZES = [*range(1, 41), 280, 320, 1000]


@pytest.mark.parametrize("red_share", [0, 0.3, 1])
@pytest.mark.parametrize("n", SIZES)
def test_explicit_parse_equals_the_pair_parse(n, red_share):
    text = explicit_text(random.Random(n * 10 + int(red_share * 10)), n, red_share)
    chi = TwoColoring.from_text(text)
    assert chi.red_masks == ref.from_text(text).red_masks
    assert chi.to_text() == text
    assert TwoColoring.from_text(chi.to_text()) == chi


@pytest.mark.parametrize("block", [colorings._MASK_BLOCK, 7])
def test_block_mask_build_equals_the_square_string_build(block, monkeypatch):
    # the masks of each seeded colour line, built in blocks of columns,
    # equal those built from the one n x n string
    monkeypatch.setattr(colorings, "_MASK_BLOCK", block)
    for n in [*range(1, 61), 300, 511, 512, 513, 1030]:
        rng = random.Random(n)
        chars = "".join(rng.choices(RED + BLUE, k=n * (n - 1) // 2))
        assert colorings._masks_from_upper_triangle(n, chars) == \
            ref.masks_from_upper_triangle(n, chars), n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(RED + BLUE),
                                             min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))))
def test_explicit_text_round_trip(case):
    n, colors = case
    text = f"{n} explicit\n{''.join(colors)}\n"
    chi = TwoColoring.from_text(text)
    assert chi == ref.from_text(text)
    assert chi.to_text() == text


BAD_EXPLICIT = [arg.text for argv in BAD_INPUTS for arg in argv
                if isinstance(arg, File) and arg.text.split()[1:2] == ["explicit"]]


@pytest.mark.parametrize("text", BAD_EXPLICIT, ids=lambda t: t.replace("\n", "/"))
def test_malformed_explicit_text_keeps_its_message(text):
    with pytest.raises(ValueError) as got:
        TwoColoring.from_text(text)
    try:
        ref.from_text(text)
    except ValueError as want:
        assert str(got.value) == str(want)
    else:  # the pair parse read past the colour line without complaint
        assert str(got.value) == "explicit coloring has extra lines after its color line"


@pytest.mark.parametrize("text,message", [
    ("0 explicit\n", "n must be positive"),
    ("-1 explicit\nR\n", "n must be positive"),
    ("3 explicit\nRRB\n\nB\n", "extra lines after its color line"),
    ("4 leftmost\nRRRR\nBBBB\n", "extra lines after its color line"),
    ("3 modular:3\nRRR\n", "extra lines after its header"),
    ("4 leftmost extra\nRRBB\n",
     "^header '4 leftmost extra': expected '<n> <rule>', got 3 fields$"),
    ("4\nRRBB\n", "^header '4': expected '<n> <rule>', got 1 fields$"),
    ("4.0 leftmost\nRRBB\n", "^header '4.0 leftmost': expected '<n> <rule>', invalid literal"),
    ("3 explicit RRB\n", "^header '3 explicit RRB': expected '<n> <rule>', got 3 fields$"),
    ("6 modular:-3\n", "^header '6 modular:-3': the modulus must be an integer at least 2$"),
    ("6 modular:1\n", "^header '6 modular:1': the modulus must be an integer at least 2$"),
])
def test_from_text_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        TwoColoring.from_text(text)


def test_blank_lines_after_the_color_line_are_allowed():
    chi = TwoColoring.from_text("3 explicit\nRRB\n\n  \n")
    assert chi == ref.from_text("3 explicit\nRRB\n")


def rescan_residual(sh):
    return [v for v, shade in enumerate(sh.assignment) if shade[0] == "X"]


def rescan_nonempty(sh, color):
    return sorted({idx for c, idx in sh.assignment if c == color})


def random_shadings():
    rng = random.Random(10)
    out = [Shading(a=2, assignment=(("X", 0),) * 9, min_count=2),
           Shading(a=3, assignment=(), min_count=1)]
    for a in (2, 3, 4, 5):
        for n in (1, 17, 120):
            labels = [(c, i) for c in (RED, BLUE) for i in range(1, a + 1)] + [("X", 0)]
            present = rng.sample(labels, rng.randint(1, len(labels)))  # others stay empty
            out.append(Shading(a=a, assignment=tuple(rng.choice(present) for _ in range(n)),
                               min_count=rng.randint(1, 5)))
    return out


@pytest.mark.parametrize("sh", random_shadings())
def test_shade_index_equals_the_rescans(sh):
    for color in (RED, BLUE, "X"):
        for index in range(sh.a + 2):
            assert sh.members(color, index) == ref.members(sh, color, index)
    assert sh.residual() == rescan_residual(sh)
    for color in (RED, BLUE):
        assert sh.nonempty_shades(color) == rescan_nonempty(sh, color)


def test_members_hands_out_a_copy():
    sh = Shading(a=2, assignment=((RED, 1), (BLUE, 1), (RED, 1), ("X", 0)), min_count=1)
    sh.members(RED, 1).append(3)
    sh.members(BLUE, 2).append(0)
    sh.residual().clear()
    assert sh.members(RED, 1) == [0, 2]
    assert sh.members(BLUE, 2) == []
    assert sh.residual() == [3]
    assert sh.nonempty_shades(BLUE) == [1]


def test_equal_fields_give_equal_shadings():
    assignment = ((RED, 1), (BLUE, 2), ("X", 0))
    one = Shading(a=2, assignment=assignment, min_count=3)
    two = Shading(a=2, assignment=tuple(list(assignment)), min_count=3)
    one.members(RED, 1)  # reading the index changes nothing
    assert one == two and hash(one) == hash(two)
    assert one != Shading(a=2, assignment=assignment, min_count=4)
    assert "_members" not in repr(one)


def test_shade_job_on_a_modular_coloring_asks_no_single_mask(tmp_path, monkeypatch):
    # neighbor_sets reads the stored red masks in one pass per color
    from ramseydensity.cli import main
    calls = []
    asked = TwoColoring.neighbor_mask

    def counted(self, v, color):
        calls.append((v, color))
        return asked(self, v, color)

    monkeypatch.setattr(TwoColoring, "neighbor_mask", counted)
    assert main(["shade", "--coloring", "modular:3", "--n", "60", "--a", "3",
                 "--min-count", "5", "--out", str(tmp_path / "shade.json")]) == 0
    assert calls == []
