"""Python processes started by the tests import the pdmkeo the tests import."""

import os
from pathlib import Path

import pdmkeo

_SRC = str(Path(pdmkeo.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
