"""Compiler of ``custom_smooth`` energy expressions.

The grammar is small: numbers, the variables x and eps, + - * / ^ (or
**), unary signs, and one-argument sin, cos, exp, abs / Abs.  One walk
over the syntax tree admits a node only through its forward derivative
rule (Griewank-Walther, Evaluating Derivatives, ch. 3), so the grammar and
the differentiator are the same code.  The value and derivative trees it
builds are compiled into lambdas over numpy; the text itself is never
evaluated.

``energy`` imports this module where a ``custom_smooth`` energy is built
or evaluated, so a process whose energies are all built-in families never
compiles it.
"""

from __future__ import annotations

import ast
import functools
import math

import numpy as np

from .errors import ConfigError

_VARIABLES = ("x", "eps")
_FUNCTIONS = ("sin", "cos", "exp", "abs", "Abs")
_BINARY_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}
_UNARY_OPS = (ast.UAdd, ast.USub)
# The lambdas' globals: the grammar's functions, and sign and log for the
# derivatives.  eps arrives as a float64 scalar.
_NAMESPACE = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "sign": np.sign, "log": np.log}


# Trees are built through these, which fold a node whose operands are all
# literals into one literal, computed in float64 as numpy computes it at
# run time (10^400 is inf, (-8)^(1/3) nan, 0^-1 inf), so no arithmetic on
# literals alone is left to Python floats, which would raise or go complex.
# A derivative is a tree, or None where it is identically zero.

def _literal(a) -> bool:
    return isinstance(a, ast.Constant)


def _constant(value: float) -> ast.Constant:
    # a nonzero integral value as an int, which numpy raises to a power
    # faster; the result is the same
    return ast.Constant(int(value) if value.is_integer() and 0 < abs(value) < 2 ** 53
                        else value)


def _fold(function, *args) -> ast.Constant:
    with np.errstate(all="ignore"):
        return _constant(float(function(*(np.float64(a.value) for a in args))))


def _binop(a, op, b):
    if _literal(a) and _literal(b):
        return _fold(_BINARY_OPS[type(op)], a, b)
    if isinstance(op, ast.Pow) and _literal(b) and b.value == 1.0:
        return a
    return ast.BinOp(left=a, op=op, right=b)


def _call(function: str, a):
    if _literal(a):
        return _fold(_NAMESPACE[function], a)
    return ast.Call(func=ast.Name(id=function, ctx=ast.Load()), args=[a], keywords=[])


def _negated(a) -> bool:
    return isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub)


def _neg(a):
    if a is None:
        return None
    if _literal(a):
        return _fold(np.negative, a)
    return a.operand if _negated(a) else ast.UnaryOp(op=ast.USub(), operand=a)


def _add(a, b):
    if a is None or b is None:
        return b if a is None else a
    return _binop(a, ast.Sub(), b.operand) if _negated(b) else _binop(a, ast.Add(), b)


def _sub(a, b):
    return _neg(b) if a is None else _add(a, _neg(b))


def _mul(a, b):
    """a * b in a derivative.  Signs move out and a factor 1 goes, which is
    exact; a literal times a literal-led product is folded, which may move
    the last bit."""
    if a is None or b is None:
        return None
    if _negated(a):
        return _neg(_mul(a.operand, b))
    if _negated(b):
        return _neg(_mul(a, b.operand))
    if _literal(b):
        a, b = b, a
    if _literal(a) and a.value == 1:
        return b
    if (_literal(a) and isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult)
            and _literal(b.left)):
        return _mul(_fold(np.multiply, a, b.left), b.right)
    return _binop(a, ast.Mult(), b)


def _div(a, b):
    return None if a is None else _binop(a, ast.Div(), b)


def _differentiate(text: str, node):
    """(value, d/dx) trees of the grammar expression ``node``.  Raise
    ConfigError at a node outside the grammar."""
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return (ast.Name(id=node.id, ctx=ast.Load()),
                _constant(1.0) if node.id == "x" else None)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            return _constant(float(node.value)), None
        except OverflowError:           # an integer literal beyond float64
            return _constant(math.inf), None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY_OPS):
        a, da = _differentiate(text, node.operand)
        return (a, da) if isinstance(node.op, ast.UAdd) else (_neg(a), _neg(da))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        a, da = _differentiate(text, node.left)
        b, db = _differentiate(text, node.right)
        if isinstance(node.op, ast.Pow) and _literal(b) and b.value == 0:
            # a^0 is 1 wherever a is (numpy's 0^0, inf^0 and nan^0 are 1),
            # so the power rule's 0 a^(-1) a' must not appear
            return _constant(1.0), None
        value = _binop(a, node.op, b)
        if isinstance(node.op, ast.Add):
            return value, _add(da, db)
        if isinstance(node.op, ast.Sub):
            return value, _sub(da, db)
        if isinstance(node.op, ast.Mult):
            return value, _add(_mul(da, b), _mul(a, db))
        if isinstance(node.op, ast.Div):
            return value, _sub(_div(da, b), _div(_mul(a, db), _binop(b, ast.Mult(), b)))
        # a^b: b a^(b-1) a', and a^b log(a) b' where the exponent holds x
        power = _mul(b, _binop(a, ast.Pow(), _sub(b, _constant(1.0))))
        return value, _add(_mul(power, da), _mul(_mul(value, _call("log", a)), db))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        a, da = _differentiate(text, node.args[0])
        function = node.func.id.lower()
        value = _call(function, a)
        outer = (_call("cos", a) if function == "sin" else
                 _neg(_call("sin", a)) if function == "cos" else
                 value if function == "exp" else _call("sign", a))
        return value, _mul(outer, da)       # sign(0) = 0, as in gradient_many
    raise ConfigError(
        f"energy expression {text!r} uses {ast.unparse(node)!r}; only "
        f"numbers, x, eps, + - * / ^ and one-argument "
        f"{', '.join(_FUNCTIONS)} are allowed"
    )


def _lambda(body) -> ast.Expression:
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x"), ast.arg("eps")],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    return ast.fix_missing_locations(ast.Expression(ast.Lambda(args=args, body=body)))


@functools.lru_cache(maxsize=128)
def compile_expression(text: str):
    """Check and differentiate a 1D expression; returns (value_fn, grad_fn),
    each a ``lambda x, eps`` over float64 arrays and scalars."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        value, grad = _differentiate(text, tree.body)
        return tuple(eval(compile(_lambda(body), "<energy expression>", "eval"), _NAMESPACE)
                     for body in (value, ast.Constant(0.0) if grad is None else grad))
    except (SyntaxError, ValueError, RecursionError) as exc:   # the last: too deep
        raise ConfigError(f"cannot compile energy expression {text!r}: {exc}") from exc
