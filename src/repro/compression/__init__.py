"""NoC data-compression substrates APPROX-NoC plugs into.

The paper treats the compressor as an exchangeable component; this package
provides the codec interfaces (:mod:`repro.compression.base`), the static
frequent-pattern mechanism (:mod:`repro.compression.fpc`,
:class:`~repro.compression.schemes.FpCompScheme`), the dynamic dictionary
mechanism (:class:`~repro.compression.dictionary.DiCompScheme`) and a
base-delta extension (:mod:`repro.compression.delta`) demonstrating the
plug-and-play claim.
"""

from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
    Notification,
    NotificationKind,
    SchemeStats,
    packet_flits,
)
from repro.compression.adaptive import AdaptiveScheme
from repro.compression.delta import BdCompScheme, BdVaxxScheme
from repro.compression.dictionary import DiCompScheme
from repro.compression.schemes import BaselineScheme, FpCompScheme

__all__ = [
    "CompressionScheme",
    "DecodeResult",
    "EncodedBlock",
    "NodeCodec",
    "Notification",
    "NotificationKind",
    "SchemeStats",
    "packet_flits",
    "DiCompScheme",
    "BaselineScheme",
    "FpCompScheme",
    "BdCompScheme",
    "BdVaxxScheme",
    "AdaptiveScheme",
]
