"""The command line's contract on generated argv: a clean result or one usage error.

Exit 0 prints strict JSON, or a CSV with no nan or inf, and no warning; exit
2 prints one `error:` line on stderr and nothing on stdout; no call raises.
"""

import contextlib
import io
import itertools
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from hypb import cli

# coefficients from zero through the float range's edges to non-finite and
# complex; t endpoints from below TABULATE_T_MIN to past TABULATE_T_MAX
COEFFICIENTS = ["0", "1", "-1", "1e-300", "1e300", "1e308", "-1e308", "inf", "nan", "1+1j",
                "1e200j"]
T_ENDS = ["1e-5", "1e-4", "0.1", "30", "600", "700", "701", "inf", "nan"]
# any two ends, in either order; half the draws are an ascending pair from
# the allowed range, so that a fair share of the calls tabulate
RANGES = st.one_of(st.tuples(st.sampled_from(T_ENDS), st.sampled_from(T_ENDS)),
                   st.sampled_from(list(itertools.combinations(T_ENDS[1:6], 2))))


def _strict(token):
    raise ValueError(f"non-strict JSON constant {token}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["X", "Y"]), a=st.sampled_from(COEFFICIENTS),
       b=st.sampled_from(COEFFICIENTS), trange=RANGES, points=st.integers(0, 64),
       as_json=st.booleans())
def test_tabulate_ends_in_a_clean_table_or_one_usage_error(family, a, b, trange, points,
                                                             as_json):
    argv = ["whittaker", "tabulate", "--family", family, f"--A={a}", f"--B={b}",
            "--range=%s:%s" % trange, f"--points={points}"] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if status == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        return
    assert status == 0 and err == ""
    if as_json:
        assert json.loads(out, parse_constant=_strict)["points"] == points
    else:
        lines = out.splitlines()
        assert lines[0] == "t,re,im,residual" and len(lines) == points + 1
        assert "nan" not in out and "inf" not in out
