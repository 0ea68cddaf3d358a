import pytest

from padic_tate.field import make_field
from padic_tate.prng import random_element, stream


class TestRandomElement:
    @pytest.mark.parametrize("lo, hi", [(14, 14), (0, 5), (5, 5)])
    def test_shift_at_or_beyond_prec_rejected(self, Q5, lo, hi):
        rng = stream(3, "prng")
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"max_shift {hi} must be below prec 5"):
            random_element(rng, Q5, 5, lo, hi)
        assert rng.getstate() == state        # nothing was drawn

    @pytest.mark.parametrize("p, kind, kwargs, prec, lo, hi, want", [
        (5, "base", {}, 12, 2, 5, (3, (297394,), 12)),
        (3, "unramified", {"f": 2}, 12, 2, 5, (3, (2242, 15262), 12)),
        (5, "eisenstein", {"e": 3, "c": 2}, 12, 2, 5, (3, (69, 53, 0), 12)),
        (5, "base", {}, 5, 4, 4, (4, (4,), 5)),
    ])
    def test_valid_draw_frozen(self, p, kind, kwargs, prec, lo, hi, want):
        x = random_element(stream(3, "prng"), make_field(p, kind, **kwargs), prec, lo, hi)
        assert (x.shift, x.coeffs, x.abs_prec) == want
