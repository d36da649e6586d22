import numpy as np

from echoscope.rng import substream

# Every Generator call synth and the report make, each from a fresh copy of
# one fixed substream, with the values numpy 2.4 draws. Together with
# substream's key derivation these streams decide every synthetic dataset
# and every baseline, so a numpy release that moves one of them fails here
# by name, not only through the golden digests.
PINNED = {
    "random": [0.8046437676890691, 0.16279673631286173, 0.19085029511006002],
    "integers scalar bound": [154, 804, 359],
    "integers array of bounds": [0, 24, 143, 813],
    "normal": [0.06300208822405427, 0.0834837380337152, -0.031666333177001536],
    "lognormal": [1.6553570169767948, 1.9500790384051985, 0.7762111731932465],
    "poisson": [6, 4, 5],
    "choice": [1, 8, 3, 1],
    "choice with p": [3, 1, 1, 3],
    "choice without replacement": [16, 6, 37, 45, 9, 7],
    "choice without replacement, large pool": [1796, 4022, 773],
}


def test_generator_streams_are_pinned():
    def fresh():
        return substream(7, "canary")

    drawn = {
        "random": fresh().random(3),
        "integers scalar bound": fresh().integers(0, 1000, size=3),
        "integers array of bounds": fresh().integers(0, np.array([2, 30, 400, 5000])),
        "normal": fresh().normal(0.0, 0.1, size=3),
        "lognormal": fresh().lognormal(0.0, 0.8, size=3),
        "poisson": fresh().poisson(6.2, size=3),
        "choice": fresh().choice(10, size=4),
        "choice with p": fresh().choice(5, size=4, p=[0.1, 0.2, 0.3, 0.25, 0.15]),
        # what the random baseline and its bulk replay draw
        "choice without replacement": fresh().choice(50, size=6, replace=False),
        "choice without replacement, large pool": fresh().choice(5000, size=3, replace=False),
    }
    assert {method: values.tolist() for method, values in drawn.items()} == PINNED
