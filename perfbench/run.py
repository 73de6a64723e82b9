"""Run one benchmark workload of eegsr.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout. The workload runs in a fresh worker
process (perfbench/bench.py) with BLAS and OpenMP pinned to one thread, and
only while no other workload holds the lock in .bench_out/, because two at
once would share the cores and the memory. The worker's last stdout line is
the JSON result; its exit code is passed on.
"""
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 175


def main(argv):
    root = Path.cwd()
    if not (root / "src" / "eegsr").is_dir():
        print("run.py: no src/eegsr here; run from the root of an eegsr checkout",
              file=sys.stderr)
        return 2
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("run.py: another benchmark workload is running; refusing to start",
                  file=sys.stderr)
            return 3
        env = {**os.environ, **{v: "1" for v in THREAD_VARS},
               "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
        worker = Path(__file__).resolve().parent / "bench.py"
        # A session of its own, so a kill reaches the commands the worker started.
        proc = subprocess.Popen([sys.executable, str(worker), *argv], env=env,
                                start_new_session=True)
        try:
            return proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s; stopped", file=sys.stderr)
            return 4
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
