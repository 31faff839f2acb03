"""Closed-loop calibration: fit *Calibrated* constants to paper targets.

The shipped :data:`repro.params.DEFAULT` constants fall in two classes
(``docs/calibration.md``): paper-stated/datasheet values, which are
evidence and must not move, and ``*Calibrated*`` values, which were
hand-fit so the model lands inside the ``PAPER_TARGETS`` acceptance
bands.  This package closes that loop mechanically:

- :mod:`repro.calib.space` — the whitelist of calibratable constants
  (:data:`CALIBRATABLE`) and the :class:`SearchSpace`/:class:`Axis`
  declaration of what a run may move;
- :mod:`repro.calib.evaluate` — one candidate → the registry's
  experiments → per-target normalized losses; the owner of the
  ``"calib"`` sweep task kind;
- :mod:`repro.calib.search` — the budgeted search
  (:class:`CoordinateDescent`, a pattern search) run through the
  distributed sweep runtime, so trials shard across processes/machines
  and resume after SIGKILL;
- :mod:`repro.calib.artifact` — the versioned
  ``netdimm-repro/calibrated-params`` artifact plus sidecar manifest.

Front doors: :func:`repro.api.calibrate` and
``python -m repro calibrate SPEC --targets fig11 --budget 24 --out DIR``.

>>> from repro.calib import SearchSpace, Axis, param_id
>>> space = SearchSpace(axes=(Axis(param="software.copy_base",
...     low_ns=140, high_ns=220, step_ns=20),))
>>> space.defaults()
{'software.copy_base': 180000}
>>> param_id(space.defaults())
'calib[software.copy_base=180000]'
"""

from repro.calib.artifact import (
    ARTIFACT_NAME,
    CALIBRATION_MANIFEST_SCHEMA,
    build_artifact,
    build_sidecar_manifest,
    write_calibration,
)
from repro.calib.evaluate import (
    DEFAULT_TARGET_SELECTORS,
    evaluate_candidate,
    experiments_for,
    select_targets,
)
from repro.calib.search import (
    CalibrationReport,
    CoordinateDescent,
    Trial,
    calibrate,
)
from repro.calib.space import (
    CALIBRATABLE,
    Axis,
    CalibratedConstant,
    SearchSpace,
    nested_overrides,
    param_id,
)

__all__ = [
    "CALIBRATABLE",
    "CalibratedConstant",
    "Axis",
    "SearchSpace",
    "param_id",
    "nested_overrides",
    "DEFAULT_TARGET_SELECTORS",
    "select_targets",
    "experiments_for",
    "evaluate_candidate",
    "Trial",
    "CoordinateDescent",
    "CalibrationReport",
    "calibrate",
    "ARTIFACT_NAME",
    "CALIBRATION_MANIFEST_SCHEMA",
    "build_artifact",
    "build_sidecar_manifest",
    "write_calibration",
]

