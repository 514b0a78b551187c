"""Multimodal (image/audio/video) column plumbing.

Media travel as opaque ``binary`` columns with typed metadata columns
(``media_type``, ``width``/``height``/``sample_rate``/``duration_ms``).
Decode / resize / frame-sample are **actor-pool** ``map_batches`` stages —
the decoder state (codec contexts, models) loads once per actor.

The actual codecs (Pillow/ffmpeg/torchaudio) are NOT in this container, so
the decode kernel is pluggable: by default a clearly-marked deterministic
fake (``FakeCodec``) that round-trips byte payloads into small fixed-shape
arrays, so every piece of Ray-side plumbing — schema, batch sizing, actor
signature, output layout — is real and tested. Swap ``codec=`` for a real
implementation in production.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa
import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


class FakeCodec:
    """Deterministic stand-in decoder (real codecs absent in this sandbox).

    decode_image → (h, w, 3) uint8 derived from a blake2b stream of the
    payload; decode_audio → int16 PCM; both are pure functions of the bytes.
    """

    def decode_image(self, payload: bytes, w: int, h: int) -> np.ndarray:
        need = h * w * 3
        out = np.frombuffer(self._stream(payload, need), dtype=np.uint8)
        return out.reshape(h, w, 3).copy()

    def decode_audio(self, payload: bytes, n_samples: int) -> np.ndarray:
        raw = np.frombuffer(self._stream(payload, n_samples * 2), dtype=np.int16)
        return raw.copy()

    @staticmethod
    def _stream(payload: bytes, n: int) -> bytes:
        out = bytearray()
        ctr = 0
        while len(out) < n:
            out += hashlib.blake2b(payload + ctr.to_bytes(4, "little"),
                                   digest_size=64).digest()
            ctr += 1
        return bytes(out[:n])


class DecodeAndFeaturize:
    """Actor-pool stage: binary payload → features.

    Appends per-media feature columns:
      * image → ``img_mean`` (float), ``img_hist`` (fixed 8-bin list<float>)
      * audio → ``rms`` (float)
    Batches must stay SMALL for large payloads — pass ``batch_size`` at the
    ``map_batches`` call site (see ``decode_featurize``).
    """

    def __init__(self, codec: Optional[object] = None, thumb: int = 16):
        self.codec = codec if codec is not None else FakeCodec()
        self.thumb = thumb

    def __call__(self, batch: pa.Table) -> pa.Table:
        mtypes = batch["media_type"].to_pylist()
        payloads = batch["payload"].to_pylist()
        widths = batch["width"].to_pylist()
        heights = batch["height"].to_pylist()
        n = batch.num_rows
        means = np.full(n, np.nan)
        rms = np.full(n, np.nan)
        hists: list[Optional[list[float]]] = [None] * n
        for i in range(n):
            if mtypes[i] == "image":
                img = self.codec.decode_image(
                    payloads[i], widths[i] or self.thumb, heights[i] or self.thumb
                )
                means[i] = float(img.mean())
                h, _ = np.histogram(img, bins=8, range=(0, 256))
                hists[i] = (h / max(img.size, 1)).astype(float).tolist()
            elif mtypes[i] == "audio":
                pcm = self.codec.decode_audio(payloads[i], 1024)
                rms[i] = float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2)))
        batch = batch.append_column("img_mean", pa.array(means, pa.float64()))
        batch = batch.append_column(
            "img_hist", pa.array(hists, pa.list_(pa.float64()))
        )
        batch = batch.append_column("rms", pa.array(rms, pa.float64()))
        return batch


def decode_featurize(
    ds: "ray.data.Dataset",
    codec: Optional[object] = None,
    batch_size: int = 64,
    concurrency: tuple[int, int] = (1, 8),
) -> "ray.data.Dataset":
    """Media feature extraction. ``batch_size`` deliberately small: payload
    bytes × batch_size × concurrency must fit worker heaps (SURVEY §4.2)."""
    return ds.map_batches(
        DecodeAndFeaturize,
        fn_constructor_kwargs=dict(codec=codec),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


class ResizeImages:
    """Actor-pool stage: decode → nearest-neighbor resize → raw RGB bytes.

    The RESIZE math is real (vectorized index gather — what a production
    stage does after any decoder); only the decode behind it is the
    pluggable codec. Output replaces ``payload`` with ``target × target × 3``
    raw bytes and updates ``width``/``height`` — downstream stages can
    ``np.frombuffer(...).reshape(t, t, 3)`` without knowing the source
    format. Non-image rows pass through untouched.
    """

    def __init__(self, target: int = 16, codec: Optional[object] = None):
        self.target = target
        self.codec = codec if codec is not None else FakeCodec()

    @staticmethod
    def _nn_resize(img: np.ndarray, t: int) -> np.ndarray:
        h, w, _ = img.shape
        ys = (np.arange(t) * h) // t
        xs = (np.arange(t) * w) // t
        return img[ys][:, xs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        mtypes = batch["media_type"].to_pylist()
        payloads = batch["payload"].to_pylist()
        widths = batch["width"].to_pylist()
        heights = batch["height"].to_pylist()
        t = self.target
        out_p, out_w, out_h = [], [], []
        for i, mt in enumerate(mtypes):
            if mt == "image":
                img = self.codec.decode_image(
                    payloads[i], widths[i] or t, heights[i] or t
                )
                out_p.append(self._nn_resize(img, t).tobytes())
                out_w.append(t)
                out_h.append(t)
            else:
                out_p.append(payloads[i])
                out_w.append(widths[i])
                out_h.append(heights[i])
        batch = batch.set_column(
            batch.schema.get_field_index("payload"), "payload",
            pa.array(out_p, pa.binary()),
        )
        batch = batch.set_column(
            batch.schema.get_field_index("width"), "width",
            pa.array(out_w, pa.int32()),
        )
        return batch.set_column(
            batch.schema.get_field_index("height"), "height",
            pa.array(out_h, pa.int32()),
        )


def resize_images(
    ds: "ray.data.Dataset",
    target: int = 16,
    codec: Optional[object] = None,
    batch_size: int = 64,
    concurrency: tuple[int, int] = (1, 8),
) -> "ray.data.Dataset":
    return ds.map_batches(
        ResizeImages,
        fn_constructor_kwargs=dict(target=target, codec=codec),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(
    ds: "ray.data.Dataset",
    n_frames: int = 4,
    frame_bytes: int = 256,
    batch_size: int = 16,
) -> "ray.data.Dataset":
    """Video rows → one row per sampled frame (uniformly spaced indices —
    the standard clip-sampling rule ``idx_j = floor(j · total / n)``).
    Output: (media_id, frame_idx, frame) with the frame payload sliced out
    of the raw stream; non-video rows are dropped. Small ``batch_size``:
    frames × n_frames × concurrency must fit the worker heap."""

    def explode(t: pa.Table) -> pa.Table:
        ids, fidx, frames = [], [], []
        mtypes = t["media_type"].to_pylist()
        payloads = t["payload"].to_pylist()
        mids = t["media_id"].to_pylist()
        for i, mt in enumerate(mtypes):
            if mt != "video":
                continue
            total = max(len(payloads[i]) // frame_bytes, 1)
            take = min(n_frames, total)
            for j in range(take):
                k = (j * total) // take
                ids.append(mids[i])
                fidx.append(k)
                frames.append(payloads[i][k * frame_bytes : (k + 1) * frame_bytes])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(fidx, pa.int64()),
                "frame": pa.array(frames, pa.binary()),
            }
        )

    return ds.map_batches(
        explode,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def synth_media(n: int, seed: int = 5) -> pa.Table:
    """Deterministic fake media table matching MEDIA_SCHEMA (tests/bench)."""
    rng = np.random.RandomState(seed)
    kinds = np.array(["image", "audio", "video"])[rng.randint(0, 3, n)]
    payloads = []
    for i in range(n):
        seed_bytes = hashlib.blake2b(f"media-{i}".encode(), digest_size=32).digest()
        if kinds[i] == "video":
            # raw frame stream: 6 frames × 256 bytes, deterministic
            payloads.append(FakeCodec._stream(seed_bytes, 6 * 256))
        else:
            payloads.append(seed_bytes)
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "media_type": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(
                np.where(kinds == "image", rng.randint(8, 32, n), 0).astype(np.int32)
            ),
            "height": pa.array(
                np.where(kinds == "image", rng.randint(8, 32, n), 0).astype(np.int32)
            ),
            "sample_rate": pa.array(
                np.where(kinds == "audio", 16000, 0).astype(np.int32)
            ),
            "duration_ms": pa.array(
                np.where(kinds == "audio", 1000, 0).astype(np.int32)
            ),
        }
    )
