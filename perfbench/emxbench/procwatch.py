"""Watching a child process tree from outside: its workers' lifetimes,
its own CPU time, and its whole tree's peak RSS and CPU once reaped."""
import os
import signal
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def children(pid):
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as f:
            return [int(x) for x in f.read().split()]
    except (OSError, ValueError):
        return []


def self_cpu_s(pid):
    """utime + stime of `pid` itself (not its children), in seconds."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


class Watched:
    """A child process polled without blocking. After it exits, `rusage`
    covers it and every descendant it reaped: ru_maxrss is the largest
    of them, CPU times are their sum."""

    def __init__(self, cmd, cwd, log_path):
        self._log = open(log_path, "w")
        # Own session, so a kill reaches the workers too.
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self._log,
                                     start_new_session=True)
        self.pid = self.proc.pid
        self.started = time.monotonic()
        self.status = None
        self.rusage = None
        self.own_cpu_s = 0.0
        self.workers = {}  # worker pid -> [first seen, last seen]

    def poll(self):
        """One observation: returns True once the process has exited."""
        if self.status is not None:
            return True
        now = time.monotonic()
        cpu = self_cpu_s(self.pid)
        if cpu is not None:
            self.own_cpu_s = cpu
        for child in children(self.pid):
            seen = self.workers.setdefault(child, [now, now])
            seen[1] = now
        pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
        if pid == 0:
            return False
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        self.rusage = rusage
        self.ended = now
        self.stdout = self.proc.stdout.read().decode(errors="replace")
        self.proc.stdout.close()
        self._log.close()
        return True

    def wait(self, interval, timeout):
        deadline = time.monotonic() + timeout
        while not self.poll():
            if time.monotonic() > deadline:
                self.kill()
                return False
            time.sleep(interval)
        return True

    def kill(self):
        if self.status is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
            # Orphaned workers are reaped by init; give them a moment.
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.pid, 0)
                except OSError:
                    break
                time.sleep(0.01)
            self.status = self.proc.returncode
            self.proc.stdout.close()
            self._log.close()

    @property
    def total_cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime if self.rusage else 0.0

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0

    def worker_lifetimes(self):
        return [last - first for first, last in self.workers.values()]
