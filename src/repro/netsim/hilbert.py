"""Hilbert space-filling curve heatmaps of the IPv4 space (Figure 6).

The paper visualizes "all observed IPv4 addresses of authoritative
nameservers" with the ipv4-heatmap tool [68]: "each pixel corresponds
to a /24 prefix" laid out along a 12th-order Hilbert curve (2^24 /24
prefixes -> a 4096 x 4096 grid), which keeps numerically adjacent
prefixes visually adjacent.

This module implements the curve mapping (the classic Lam & Shapiro
d2xy/xy2d iteration) and a :class:`HilbertHeatmap` accumulator that
counts addresses per /24 and can render a downsampled density grid or
ASCII art for terminal inspection.
"""

from repro.netsim.addr import ipv4_to_int


def d2xy(order, d):
    """Map curve position *d* to (x, y) on a 2^order x 2^order grid."""
    n = 1 << order
    if not 0 <= d < n * n:
        raise ValueError("d out of range for order %d" % order)
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        # Rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def xy2d(order, x, y):
    """Inverse of :func:`d2xy`."""
    n = 1 << order
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("coordinates out of range for order %d" % order)
    d = 0
    s = n // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


class HilbertHeatmap:
    """Count IPv4 addresses per /24 prefix along the Hilbert curve.

    Parameters
    ----------
    order:
        Hilbert curve order of the *output* grid.  The canonical
        ipv4-heatmap uses order 12 (one pixel per /24); lower orders
        aggregate 4^(12-order) /24s per cell, handy for ASCII output.
    """

    FULL_ORDER = 12  # 2^24 /24-prefixes = (2^12)^2 grid

    def __init__(self, order=12):
        if not 1 <= order <= self.FULL_ORDER:
            raise ValueError("order must be in [1, 12]")
        self.order = order
        self._counts = {}  # /24 index -> address count

    def add(self, address):
        """Record one observed IPv4 address."""
        index = ipv4_to_int(address) >> 8  # /24 index, 24 bits
        self._counts[index] = self._counts.get(index, 0) + 1

    @property
    def populated_prefixes(self):
        """Number of distinct /24 prefixes with at least one address."""
        return len(self._counts)

    def prefix_density_histogram(self):
        """Return ``{addresses_in_prefix: number_of_prefixes}``.

        Section 3.7 reports 48 % of observed /24s holding a single
        nameserver address, 24 % two, 7.7 % three -- this is exactly
        that distribution.
        """
        hist = {}
        for count in self._counts.values():
            hist[count] = hist.get(count, 0) + 1
        return hist

    def grid(self):
        """Render a dense 2^order x 2^order count grid (list of rows).

        Each /24 is placed at its order-12 Hilbert position and then
        downsampled into the requested output order by integer
        division of the coordinates, preserving locality.
        """
        size = 1 << self.order
        shift = self.FULL_ORDER - self.order
        rows = [[0] * size for _ in range(size)]
        for index, count in self._counts.items():
            x, y = d2xy(self.FULL_ORDER, index)
            rows[y >> shift][x >> shift] += count
        return rows

    def to_pgm(self, path):
        """Write the grid as a plain PGM grayscale image.

        The canonical ipv4-heatmap [68] renders a PNG; plain PGM (P2)
        needs no imaging libraries and opens in any viewer.  Intensity
        is log-scaled density, 0 = empty.
        """
        rows = self.grid()
        peak = max((c for row in rows for c in row), default=0)
        maxval = 255
        with open(path, "w", encoding="ascii") as fh:
            fh.write("P2\n# repro DNS Observatory Figure 6\n")
            fh.write("%d %d\n%d\n" % (len(rows[0]), len(rows), maxval))
            peak_bits = peak.bit_length() if peak else 1
            for row in rows:
                fh.write(" ".join(
                    str(0 if c == 0 else
                        max(32, min(maxval,
                                    round(c.bit_length() / peak_bits
                                          * maxval))))
                    for c in row) + "\n")
        return path

    def to_ascii(self):
        """Render the grid as ASCII art (log-scaled density)."""
        shades = " .:-=+*#%@"
        rows = self.grid()
        peak = max((c for row in rows for c in row), default=0)
        if peak == 0:
            return "\n".join("".join(shades[0] for _ in row) for row in rows)
        out = []
        levels = len(shades) - 1
        for row in rows:
            line = []
            for count in row:
                if count == 0:
                    line.append(shades[0])
                else:
                    # log scale: 1 address -> lowest ink, peak -> full ink
                    frac = (count.bit_length() / peak.bit_length()) if peak > 1 else 1.0
                    line.append(shades[max(1, min(levels, round(frac * levels)))])
            out.append("".join(line))
        return "\n".join(out)
