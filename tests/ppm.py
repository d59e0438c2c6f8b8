"""Writes the binary PPM images that ``knet infer`` reads (``knet.data.read_ppm``)."""

import numpy as np


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) image in [0, 1] as an 8-bit binary PPM."""
    arr = (np.clip(image, 0, 1) * 255).round().astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as fp:
        fp.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fp.write(arr.tobytes())
