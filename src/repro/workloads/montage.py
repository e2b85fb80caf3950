"""Montage workflow generator (Fig. 8 right, §VI).

Montage builds a science-grade sky mosaic from many input images.  The
paper's instance has 11 340 functions, 108 hours of total computation
(34.3 s per task on average) and touches 673.49 GB of data.

The task-type constants below are lighter than that.  At full scale their
durations sum to 65 722 s (18.3 h, 5.80 s per task), and their outputs
total 652.9 GB, on top of 170.0 GB of raw input images.  So the generator
has about a sixth of the paper's compute for more bytes than the paper
moves.  Item 1(b) of ``ROADMAP.md`` is the calibration meant to fix this;
the constants stay as they are until it lands.

The generator follows the canonical Montage structure:

* ``project_image`` (H) — one per input image,
* ``diff_fit`` (I) — one per overlapping image pair (two per image here),
* ``concat_fit`` (J) → ``background_model`` (J) — global fitting steps,
* ``background_correct`` (K) — one per image,
* ``coadd`` (L) → ``shrink_jpeg`` (L) — final assembly.

With ``images = 2 834`` the full-scale workflow has
``2 834 + 5 668 + 2 + 2 834 + 2 = 11 340`` tasks, matching the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.core.client import UniFaaSClient
from repro.data.remote_file import GlobusFile
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type

__all__ = ["MONTAGE_TYPES", "build_montage_workflow", "FULL_SCALE_IMAGES"]

#: Number of input images at scale 1.0 (gives exactly 11 340 tasks).
FULL_SCALE_IMAGES = 2834

#: Size of one raw input image (MB).
_RAW_IMAGE_MB = 60.0

#: At full scale: durations sum to 65 722 s (5.80 s per task), outputs to
#: 652.9 GB (see the module docstring).
MONTAGE_TYPES = {
    "project_image": TaskTypeSpec(name="project_image", duration_s=9.0, output_mb=90.0),
    "diff_fit": TaskTypeSpec(name="diff_fit", duration_s=3.5, output_mb=25.0),
    "concat_fit": TaskTypeSpec(name="concat_fit", duration_s=60.0, output_mb=10.0),
    "background_model": TaskTypeSpec(name="background_model", duration_s=120.0, output_mb=10.0),
    "background_correct": TaskTypeSpec(name="background_correct", duration_s=7.0, output_mb=90.0),
    "coadd": TaskTypeSpec(name="coadd", duration_s=300.0, output_mb=1024.0, cores=1),
    "shrink_jpeg": TaskTypeSpec(name="shrink_jpeg", duration_s=60.0, output_mb=64.0),
}


def build_montage_workflow(
    client: UniFaaSClient,
    *,
    scale: float = 1.0,
    image_location: Optional[str] = None,
    jitter: float = 0.0,
) -> WorkloadInfo:
    """Compose the Montage DAG through ``client``: ``scale`` of the paper's
    images, at least two."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    images = max(2, int(round(FULL_SCALE_IMAGES * scale)))

    types = MONTAGE_TYPES
    fns = {name: make_task_type(spec, jitter) for name, spec in types.items()}
    info = WorkloadInfo(name="montage", scale=scale)
    location = image_location or client.config.executors[0].endpoint

    with client:
        projected = []
        for index in range(images):
            raw = GlobusFile(f"raw_{index:05d}.fits", size_mb=_RAW_IMAGE_MB, location=location)
            future = fns["project_image"](raw)
            info.register(future, "project_image")
            projected.append(future)

        diffs = []
        for index in range(images):
            left = projected[index]
            right = projected[(index + 1) % images]
            for _ in range(2):  # two overlap fits per image on average
                diff = fns["diff_fit"](left, right)
                info.register(diff, "diff_fit")
                diffs.append(diff)

        concat = fns["concat_fit"](*diffs[: min(len(diffs), 64)])
        info.register(concat, "concat_fit")
        model = fns["background_model"](concat)
        info.register(model, "background_model")

        corrected = []
        for future in projected:
            corr = fns["background_correct"](future, model)
            info.register(corr, "background_correct")
            corrected.append(corr)

        mosaic = fns["coadd"](*corrected[: min(len(corrected), 128)])
        info.register(mosaic, "coadd")
        preview = fns["shrink_jpeg"](mosaic)
        info.register(preview, "shrink_jpeg")
    return info
