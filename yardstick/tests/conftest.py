"""The benchmark's modules import each other by bare name, as they do
when ``run.py`` is the script; put their directory on the path."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
