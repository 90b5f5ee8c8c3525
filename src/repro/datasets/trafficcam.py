"""TrafficCam: the CCTV traffic-video dataset.

Paper spec (Section 6.1): "24 mins and 30 secs of high-definition (1080p)
traffic camera video (35280 frames)". The synthetic equivalent keeps the
structure — a fixed roadside camera, vehicles driving through lanes toward
the camera, pedestrians crossing on a walkway — at a configurable ``scale``
(fraction of the paper's frame count) and resolution.

Ground truth (identities, categories, boxes, metric depth) comes straight
from the scene, which is what lets Figure 2 and Table 1 report
precision/recall without the paper's manual annotation step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.vision.render import Renderer
from repro.vision.scene import Camera, GroundTruthBox, Scene, SceneObject, linear_states

PAPER_SPEC = {
    "frames": 35_280,
    "resolution": (1080, 1920),
    "duration_seconds": 24 * 60 + 30,
    "fps": 24,
}

# Identity colours are spaced at the golden angle *within a disjoint hue
# half-circle per category*: vehicles take 0-168 degrees, pedestrians
# 186-354. Within a category identities stay maximally separable in colour
# space (what appearance matching, q4, depends on); across categories hues
# never collide, so a vehicle can never be confused with a pedestrian by
# colour alone — only by the detector's label noise, which is the Table 1
# mechanism under study.
_GOLDEN_ANGLE = 137.50776405


def _identity_color(
    index: int, *, offset: float, value: float, hue_base: float = 0.0
) -> tuple[int, int, int]:
    hue = (hue_base + (offset + index * _GOLDEN_ANGLE) % 168.0) % 360.0
    sector = hue / 60.0
    chroma = value * 0.82
    x = chroma * (1.0 - abs(sector % 2.0 - 1.0))
    if sector < 1:
        rgb = (chroma, x, 0.0)
    elif sector < 2:
        rgb = (x, chroma, 0.0)
    elif sector < 3:
        rgb = (0.0, chroma, x)
    elif sector < 4:
        rgb = (0.0, x, chroma)
    elif sector < 5:
        rgb = (x, 0.0, chroma)
    else:
        rgb = (chroma, 0.0, x)
    base = value - chroma
    return tuple(int(round((channel + base) * 255)) for channel in rgb)


@dataclass(frozen=True)
class TrafficCamSpec:
    """Resolved generation parameters for one TrafficCam instance."""

    n_frames: int
    width: int
    height: int
    n_vehicles: int
    n_pedestrians: int
    seed: int


class TrafficCamDataset:
    """Synthetic roadside CCTV video with full ground truth."""

    name = "trafficcam"

    def __init__(
        self,
        *,
        scale: float = 0.01,
        width: int = 320,
        height: int = 180,
        seed: int = 7,
        vehicles_per_100_frames: float = 4.0,
        pedestrians_per_100_frames: float = 3.0,
    ) -> None:
        if not 0 < scale <= 1.0:
            raise DatasetError(f"scale must be in (0, 1], got {scale}")
        n_frames = max(int(PAPER_SPEC["frames"] * scale), 16)
        n_vehicles = max(int(n_frames / 100.0 * vehicles_per_100_frames), 2)
        n_pedestrians = max(int(n_frames / 100.0 * pedestrians_per_100_frames), 2)
        self.spec = TrafficCamSpec(
            n_frames=n_frames,
            width=width,
            height=height,
            n_vehicles=n_vehicles,
            n_pedestrians=n_pedestrians,
            seed=seed,
        )
        self.scene = self._build_scene()
        self._renderer = Renderer(self.scene, seed=seed)

    # -- scene construction -----------------------------------------------

    def _build_scene(self) -> Scene:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        camera = Camera(
            horizon_y=spec.height * 0.25,
            focal=spec.height * 1.2,
            cam_height=5.0,
        )
        scene = Scene(
            spec.width, spec.height, spec.n_frames, camera=camera, name=self.name
        )
        lanes = [-5.5, -2.5, 2.5, 5.5]  # metres from the optical axis
        for index in range(spec.n_vehicles):
            scene.add(self._make_vehicle(scene, rng, index, lanes))
        for index in range(spec.n_pedestrians):
            scene.add(self._make_pedestrian(scene, rng, index))
        return scene

    def _make_vehicle(
        self, scene: Scene, rng: np.random.Generator, index: int, lanes: list[float]
    ) -> SceneObject:
        spec = self.spec
        color = _identity_color(
            index,
            offset=float(rng.uniform(0, 12)),
            value=float(rng.uniform(0.75, 0.92)),
            hue_base=0.0,
        )
        lane = lanes[index % len(lanes)]
        duration = int(rng.integers(40, 90))
        start = int(rng.integers(0, max(spec.n_frames - duration // 2, 1)))
        frames = range(start, min(start + duration, spec.n_frames))
        # drive toward the camera: far to near
        vehicle = SceneObject(f"veh-{index}", "vehicle", color)
        vehicle.states = linear_states(
            scene.camera, spec.width, frames,
            depth0=float(rng.uniform(32, 45)),
            depth1=float(rng.uniform(5, 8)),
            lateral0=lane,
            lateral1=lane,
            real_width=float(rng.uniform(3.8, 4.6)),
            real_height=float(rng.uniform(1.4, 1.8)),
        )
        return vehicle

    def _make_pedestrian(
        self, scene: Scene, rng: np.random.Generator, index: int
    ) -> SceneObject:
        spec = self.spec
        color = _identity_color(
            index,
            offset=float(rng.uniform(0, 12)),
            value=float(rng.uniform(0.72, 0.9)),
            hue_base=186.0,
        )
        duration = int(rng.integers(50, 110))
        start = int(rng.integers(0, max(spec.n_frames - duration // 2, 1)))
        frames = range(start, min(start + duration, spec.n_frames))
        # cross the walkway laterally at roughly constant depth
        depth = float(rng.uniform(10, 22))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        lateral0 = -direction * float(rng.uniform(6, 9))
        pedestrian = SceneObject(f"ped-{index}", "person", color)
        pedestrian.states = linear_states(
            scene.camera, spec.width, frames,
            depth0=depth,
            depth1=depth + float(rng.uniform(-1.5, 1.5)),
            lateral0=lateral0,
            lateral1=-lateral0,
            real_width=float(rng.uniform(0.5, 0.65)),
            real_height=float(rng.uniform(1.6, 1.9)),
        )
        return pedestrian

    # -- access -------------------------------------------------------------

    @property
    def n_frames(self) -> int:
        return self.spec.n_frames

    @property
    def camera(self) -> Camera:
        return self.scene.camera

    def frame(self, index: int) -> np.ndarray:
        if not 0 <= index < self.spec.n_frames:
            raise DatasetError(
                f"frame {index} out of range (0..{self.spec.n_frames - 1})"
            )
        return self._renderer.render(index)

    def frames(self) -> Iterator[np.ndarray]:
        """Render every frame in order (the video the loader ingests)."""
        return self._renderer.render_all()

    def ground_truth(self, frame: int) -> list[GroundTruthBox]:
        return self.scene.ground_truth(frame)

    # -- query-level ground truth -------------------------------------------

    def frames_with_vehicles(self) -> set[int]:
        """q2 truth: frame indices containing at least one vehicle."""
        out = set()
        for frame in range(self.spec.n_frames):
            if any(
                box.category == "vehicle" for box in self.scene.ground_truth(frame)
            ):
                out.add(frame)
        return out

    def distinct_pedestrians(self) -> set[str]:
        """q4 truth: identities of pedestrians that ever appear on screen."""
        return {
            box.object_id
            for box in self.scene.all_ground_truth()
            if box.category == "person"
        }
