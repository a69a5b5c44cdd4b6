import os
import subprocess
import sys
import textwrap

import procs

HERE = os.path.dirname(os.path.abspath(__file__))

#: A group leader that forks a long sleeper and exits without waiting.
LEAVES_A_CHILD = ("import subprocess; "
                  "print(subprocess.Popen(['sleep', '60']).pid, flush=True)")


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_stop_group_kills_and_waits_for_what_the_leader_left():
    procs.adopt_orphans()
    leader = subprocess.Popen([sys.executable, "-c", LEAVES_A_CHILD],
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    sleeper = int(leader.stdout.readline())
    leader.wait()
    leader.stdout.close()
    assert _alive(sleeper)
    assert procs.stop_group(leader.pid, grace_s=0.1) == [sleeper]
    assert not os.path.exists(f"/proc/{sleeper}")
    assert procs.stop_group(leader.pid, grace_s=0.1) == []


def test_stop_children_reaches_grandchildren_of_a_killed_child():
    script = textwrap.dedent(f"""
        import subprocess, sys, time
        sys.path.insert(0, {os.path.dirname(HERE)!r})
        import procs
        procs.adopt_orphans()
        child = subprocess.Popen(
            [sys.executable, "-c",
             {LEAVES_A_CHILD!r} + "; import time; time.sleep(60)"],
            stdout=subprocess.PIPE, text=True)
        sleeper = int(child.stdout.readline())
        ended = procs.stop_children()
        assert sorted(ended) == sorted([child.pid, sleeper]), ended
        assert procs.children(__import__("os").getpid()) == []
        print(sleeper)
    """)
    done = subprocess.run([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, text=True, timeout=30)
    assert done.returncode == 0
    assert not os.path.exists(f"/proc/{int(done.stdout)}")
