"""Speed block of `cli_query`: `csv_kernel.py <file.csv>`.

Parses the benchmark's own fixed CSV file (`wl_cli.write_kernel_csv`) the
way a CLI op's `load_csv` parses its data file: `csv.reader`, every row
held, then `float` on every field. Run as its own process between CLI ops,
its time follows the machine's speed for that allocation-heavy work, which
the small in-process kernel does not (see common.py and README.md).
"""

import csv
import sys

if __name__ == "__main__":
    with open(sys.argv[1], newline="") as fh:
        rows = list(csv.reader(fh))
    nums = [[float(tok) for tok in row] for row in rows]
