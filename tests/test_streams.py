"""Named random sub-streams."""

import pytest

from gvqkd.streams import stream


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError, match=r"^unknown stream name 'nope'$"):
        stream(0, "nope")
