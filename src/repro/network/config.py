"""Network configuration: the constants of the paper's cost model.

Section 3.1 of the paper parameterises the cost model with

* ``MTU`` -- maximum transmission unit of the physical layer (1500 bytes on
  Ethernet/WiFi, 576 on dial-up),
* ``B_H`` -- TCP/IP header bytes per packet (typically 40),
* ``B_Q`` -- size of a query string,
* ``B_A`` -- size of an aggregate answer (one long integer),
* ``B_obj`` -- wire size of one spatial object,
* ``b_R`` / ``b_S`` -- per-byte tariffs of the two servers.

The defaults reproduce the prototype's WiFi setting (MTU 1500, equal
tariffs).  ``B_obj`` defaults to 20 bytes: two 8-byte coordinates plus a
4-byte identifier, which puts the total bytes of the paper's 2 x 1000-point
workloads in the 40 kB range reported by Figures 6-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NetworkConfig:
    """Immutable bundle of wire-level constants and tariffs."""

    #: Maximum transmission unit in bytes (payload + headers per packet).
    mtu: int = 1500
    #: TCP/IP header overhead per packet, bytes (B_H in the paper).
    header_bytes: int = 40
    #: Size of a query string, bytes (B_Q).  Window and range queries are
    #: short fixed-format strings in the prototype.
    query_bytes: int = 48
    #: Size of an aggregate answer, bytes (B_A) -- "usually one long integer".
    answer_bytes: int = 8
    #: Wire size of one spatial object, bytes (B_obj).
    object_bytes: int = 20
    #: Per-byte transfer tariff for server R (b_R).
    tariff_r: float = 1.0
    #: Per-byte transfer tariff for server S (b_S).
    tariff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.mtu <= self.header_bytes:
            raise ValueError("MTU must exceed the header size")
        if self.header_bytes < 0 or self.query_bytes < 0 or self.answer_bytes < 0:
            raise ValueError("byte sizes must be non-negative")
        if self.object_bytes <= 0:
            raise ValueError("object_bytes must be positive")
        if self.tariff_r < 0 or self.tariff_s < 0:
            raise ValueError("tariffs must be non-negative")

    # ------------------------------------------------------------------ #

    @property
    def payload_per_packet(self) -> int:
        """Usable payload bytes per packet (``MTU - B_H``)."""
        return self.mtu - self.header_bytes

    def tariff_for(self, server_name: str) -> float:
        """Tariff by conventional server name (``"R"`` or ``"S"``)."""
        name = server_name.upper()
        if name == "R":
            return self.tariff_r
        if name == "S":
            return self.tariff_s
        raise ValueError(f"unknown server name {server_name!r} (expected 'R' or 'S')")

    def with_tariffs(self, tariff_r: float, tariff_s: float) -> "NetworkConfig":
        """A copy with different per-byte tariffs."""
        return replace(self, tariff_r=tariff_r, tariff_s=tariff_s)

    @staticmethod
    def wifi() -> "NetworkConfig":
        """The prototype's WiFi configuration (paper defaults)."""
        return NetworkConfig()

    @staticmethod
    def dialup() -> "NetworkConfig":
        """A dial-up style configuration (MTU 576), mentioned in Section 3.1."""
        return NetworkConfig(mtu=576)
