"""Cryptographic substrate: everything PEOS and SS build on.

All schemes are complete pure-Python implementations (no mocks):

* :mod:`repro.crypto.dgk` — DGK-style AHE with plaintext ``Z_{2^l}`` and
  Pohlig-Hellman full decryption, PEOS's AHE (Section VI-A3).
* :mod:`repro.crypto.aes` — AES-128-CBC (FIPS-197 validated).
* :mod:`repro.crypto.elgamal_ec` — secp256r1 hybrid ElGamal.
* :mod:`repro.crypto.secret_sharing` — additive sharing over ``Z_M``.
* :mod:`repro.crypto.onion` — layered encryption for the SS baseline.
"""

from . import aes, dgk, elgamal_ec, math_utils, onion, secret_sharing
from .aes import AES128CBC
from .secret_sharing import (
    add_share_vectors,
    reconstruct_value,
    reconstruct_vector,
    share_value,
    share_vector,
)

__all__ = [
    "AES128CBC",
    "add_share_vectors",
    "aes",
    "dgk",
    "elgamal_ec",
    "math_utils",
    "onion",
    "reconstruct_value",
    "reconstruct_vector",
    "secret_sharing",
    "share_value",
    "share_vector",
]
