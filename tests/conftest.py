"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Any, List

import pytest

from repro.cfront import parse
from repro.hls import SolutionConfig
from repro.interp import batch, run_program


@pytest.fixture(autouse=True, scope="session")
def eager_lowering():
    """Lower every unit before its first input on the batch engine.

    By default a batch engine runs an engine's first input on the unit's
    closure compilation (``batch._LOWER_AFTER_INPUTS``), and many tests
    run a single input; the suite exists to check the generated code, so
    it lowers at once.  Tests of the lowering rule set their own value.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_LOWER_AFTER_INPUTS", 0)
        yield


def run_c(source: str, func: str, args: List[Any], **kwargs):
    """Parse and execute in one go; returns the ExecResult."""
    return run_program(parse(source), func, args, **kwargs)


@pytest.fixture
def sum_array_source() -> str:
    return """
    int sum_array(int a[8], int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
            total += a[i];
        }
        return total;
    }
    """


@pytest.fixture
def tree_source() -> str:
    """Figure 2-style program: malloc + pointers + void recursion."""
    return """
    struct Node {
        int val;
        struct Node *left;
        struct Node *right;
    };

    static int visit_sum = 0;

    struct Node *tree_insert(struct Node *root, int v) {
        struct Node *n = (struct Node *)malloc(sizeof(struct Node));
        n->val = v;
        n->left = 0;
        n->right = 0;
        if (root == 0) {
            return n;
        }
        struct Node *curr = root;
        while (1) {
            if (v < curr->val) {
                if (curr->left == 0) {
                    curr->left = n;
                    break;
                }
                curr = curr->left;
            } else {
                if (curr->right == 0) {
                    curr->right = n;
                    break;
                }
                curr = curr->right;
            }
        }
        return root;
    }

    void traverse(struct Node *curr) {
        if (curr == 0) {
            return;
        }
        visit_sum = visit_sum + curr->val;
        traverse(curr->left);
        traverse(curr->right);
    }

    int kernel(int input[16], int n) {
        if (n < 0) {
            n = 0;
        }
        if (n > 16) {
            n = 16;
        }
        struct Node *root = 0;
        visit_sum = 0;
        for (int i = 0; i < n; i++) {
            root = tree_insert(root, input[i]);
        }
        traverse(root);
        return visit_sum;
    }
    """


@pytest.fixture
def tree_solution() -> SolutionConfig:
    return SolutionConfig(top_name="kernel")
