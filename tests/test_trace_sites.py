"""The benchmark tracer's lookup sites still exist in the package.

``perfbench/tracing.py`` wraps public functions where their callers look
them up; its own tests are not part of this suite, so a renamed or deleted
name would otherwise break ``perfbench/run.py --trace 1`` unnoticed.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_lookup_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    for layer, _, sites in tracing.LAYERS:
        for owner, attr in sites:
            assert callable(vars(owner).get(attr)), (layer, owner.__name__, attr)
