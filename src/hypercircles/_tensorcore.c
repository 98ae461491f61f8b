/* Compiled loops for the coordinate vectors of `numberfield`.

   An element of a number-field tower is one flat vector of Python ints
   (`NFElement.ic`).  Each entry point below returns exactly what the pure
   function of the same name in numberfield.py (with a leading underscore)
   returns; `numberfield` binds all of them or none.

     tadd(a, b)              _tadd: the entrywise sum a + b
     tsub(a, b)              _tsub: the entrywise difference a - b
     tneg(a)                 _tneg: the entrywise negation
     tscale(a, k)            _tscale: every entry times the int k
     tdiv(a, k)              _tdiv: every entry floor-divided by the int k
     tbool(a)                _tbool: whether some entry is nonzero
     tcontent(a, g=0)        _tcontent: gcd(g, *a), nonnegative
     conv_reduce(a, b, rows) _conv_reduce: the product of two first-level
                             vectors: their convolution, then the reduction
                             rows for theta^n .. theta^(2n-2)
     matvec(rows, v)         _matvec: the integer matrix with these rows
                             times the vector v

   Contract: vectors and rows are tuples or lists of exact ints, and the
   lengths that a product pairs agree; anything else raises TypeError or
   ValueError.  Results are tuples of ints.  The integers stay Python
   objects, so the gain over the pure loops is the loop bookkeeping, which
   dominates at the coordinate sizes of the pipeline.  Only exact ints are
   accepted, so no Python code runs inside a loop and the item arrays of
   the arguments stay valid throughout.  The source uses the public
   CPython C API only; build it with

       python3 setup.py build_ext --inplace
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *math_gcd; /* math.gcd, looked up once at import */

/* A new reference to obj as a fast sequence (a tuple or a list) whose
   items are all exact ints, or NULL with TypeError. */
static PyObject *
int_vector(PyObject *obj)
{
    PyObject *seq = PySequence_Fast(obj, "expected a tuple or list of ints");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **x = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyLong_CheckExact(x[i])) {
            PyErr_Format(PyExc_TypeError, "expected an int entry, got %.200s",
                         Py_TYPE(x[i])->tp_name);
            Py_DECREF(seq);
            return NULL;
        }
    }
    return seq;
}

static int
check_length(PyObject *seq, Py_ssize_t n)
{
    if (PySequence_Fast_GET_SIZE(seq) == n)
        return 0;
    PyErr_Format(PyExc_ValueError, "length %zd where %zd is expected",
                 PySequence_Fast_GET_SIZE(seq), n);
    return -1;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (lo <= nargs && nargs <= hi)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd arguments (%zd given)",
                 name, lo, hi, nargs);
    return -1;
}

/* *acc += x * y, where a NULL *acc stands for 0.  Returns -1 on error. */
static int
add_product(PyObject **acc, PyObject *x, PyObject *y)
{
    PyObject *p = PyNumber_Multiply(x, y);
    if (p == NULL)
        return -1;
    if (*acc == NULL) {
        *acc = p;
        return 0;
    }
    PyObject *s = PyNumber_Add(*acc, p);
    Py_DECREF(p);
    if (s == NULL)
        return -1;
    Py_DECREF(*acc);
    *acc = s;
    return 0;
}

/* The tuple (f(a[i], b[i])) for two int vectors of one length, or, when
   b is NULL, (f(a[i], k)) for an int k or a NULL k that f ignores. */
static PyObject *
entrywise(PyObject *a_obj, PyObject *b_obj, PyObject *k, binaryfunc f)
{
    PyObject *a = int_vector(a_obj), *b = NULL, *out = NULL;
    if (a == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(a);
    if (b_obj != NULL) {
        b = int_vector(b_obj);
        if (b == NULL || check_length(b, n) < 0)
            goto done;
    }
    else if (k != NULL && !PyLong_CheckExact(k)) {
        PyErr_SetString(PyExc_TypeError, "expected an int scalar");
        goto done;
    }
    out = PyTuple_New(n);
    if (out == NULL)
        goto done;
    PyObject **x = PySequence_Fast_ITEMS(a);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *r = f(x[i], b != NULL ? PySequence_Fast_GET_ITEM(b, i) : k);
        if (r == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        PyTuple_SET_ITEM(out, i, r);
    }
done:
    Py_DECREF(a);
    Py_XDECREF(b);
    return out;
}

static PyObject *
negate(PyObject *x, PyObject *unused)
{
    (void)unused;
    return PyNumber_Negative(x);
}

static PyObject *
tadd(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tadd", nargs, 2, 2) < 0)
        return NULL;
    return entrywise(args[0], args[1], NULL, PyNumber_Add);
}

static PyObject *
tsub(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tsub", nargs, 2, 2) < 0)
        return NULL;
    return entrywise(args[0], args[1], NULL, PyNumber_Subtract);
}

static PyObject *
tneg(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tneg", nargs, 1, 1) < 0)
        return NULL;
    return entrywise(args[0], NULL, NULL, negate);
}

static PyObject *
tscale(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tscale", nargs, 2, 2) < 0)
        return NULL;
    return entrywise(args[0], NULL, args[1], PyNumber_Multiply);
}

static PyObject *
tdiv(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tdiv", nargs, 2, 2) < 0)
        return NULL;
    return entrywise(args[0], NULL, args[1], PyNumber_FloorDivide);
}

static PyObject *
tbool(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tbool", nargs, 1, 1) < 0)
        return NULL;
    PyObject *a = int_vector(args[0]);
    if (a == NULL)
        return NULL;
    int found = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(a);
    PyObject **x = PySequence_Fast_ITEMS(a);
    for (Py_ssize_t i = 0; i < n && !found; i++)
        found = PyObject_IsTrue(x[i]);
    Py_DECREF(a);
    return PyBool_FromLong(found);
}

/* math.gcd(g, *a) in one call, which stops multiplying out once the gcd
   is 1. */
static PyObject *
tcontent(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("tcontent", nargs, 1, 2) < 0)
        return NULL;
    PyObject *g = nargs == 2 ? args[1] : NULL;
    if (g != NULL && !PyLong_CheckExact(g)) {
        PyErr_SetString(PyExc_TypeError, "expected an int for g");
        return NULL;
    }
    PyObject *a = int_vector(args[0]);
    if (a == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(a);
    PyObject **call = PyMem_New(PyObject *, n + 1);
    PyObject *out = NULL;
    if (call == NULL) {
        PyErr_NoMemory();
    }
    else {
        PyObject **x = PySequence_Fast_ITEMS(a);
        Py_ssize_t k = 0;
        if (g != NULL)
            call[k++] = g;
        for (Py_ssize_t i = 0; i < n; i++)
            call[k++] = x[i];
        out = PyObject_Vectorcall(math_gcd, call, (size_t)k, NULL);
        PyMem_Free(call);
    }
    Py_DECREF(a);
    return out;
}

/* The first-level product: out[i + j] += a[i] b[j], then each out[k] with
   k >= n folded into out[0 .. n-1] along rows[k - n]. */
static PyObject *
conv_reduce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("conv_reduce", nargs, 3, 3) < 0)
        return NULL;
    PyObject *a = NULL, *b = NULL, *rows = NULL, *row = NULL, *res = NULL;
    PyObject **out = NULL;
    Py_ssize_t n = 0;
    if ((a = int_vector(args[0])) == NULL || (b = int_vector(args[1])) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(a);
    if (check_length(b, n) < 0)
        goto done;
    rows = PySequence_Fast(args[2], "expected a tuple or list of rows");
    if (rows == NULL)
        goto done;
    if (n > 1 && PySequence_Fast_GET_SIZE(rows) < n - 1) {
        PyErr_SetString(PyExc_ValueError, "too few reduction rows");
        goto done;
    }
    out = PyMem_New(PyObject *, n > 0 ? 2 * n - 1 : 1);
    if (out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < 2 * n - 1; k++)
        out[k] = NULL;
    PyObject **x = PySequence_Fast_ITEMS(a), **y = PySequence_Fast_ITEMS(b);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyObject_IsTrue(x[i]))
            continue;
        for (Py_ssize_t j = 0; j < n; j++) {
            if (PyObject_IsTrue(y[j]) && add_product(&out[i + j], x[i], y[j]) < 0)
                goto done;
        }
    }
    for (Py_ssize_t k = 2 * n - 2; k >= n; k--) {
        PyObject *c = out[k];
        if (c == NULL || !PyObject_IsTrue(c))
            continue;
        row = int_vector(PySequence_Fast_GET_ITEM(rows, k - n));
        if (row == NULL || check_length(row, n) < 0)
            goto done;
        PyObject **r = PySequence_Fast_ITEMS(row);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (PyObject_IsTrue(r[i]) && add_product(&out[i], c, r[i]) < 0)
                goto done;
        }
        Py_CLEAR(row);
    }
    res = PyTuple_New(n);
    if (res == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (out[i] == NULL && (out[i] = PyLong_FromLong(0)) == NULL) {
            Py_CLEAR(res);
            goto done;
        }
        PyTuple_SET_ITEM(res, i, out[i]); /* the tuple takes the reference */
        out[i] = NULL;
    }
done:
    if (out != NULL) {
        for (Py_ssize_t k = 0; k < 2 * n - 1; k++)
            Py_XDECREF(out[k]);
        PyMem_Free(out);
    }
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(rows);
    Py_XDECREF(row);
    return res;
}

/* The tuple of sums of row[j] * v[j], one per row; zero entries are
   skipped, which leaves every sum as it is. */
static PyObject *
matvec(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("matvec", nargs, 2, 2) < 0)
        return NULL;
    PyObject *rows = NULL, *v = NULL, *row = NULL, *out = NULL, *acc = NULL;
    if ((rows = PySequence_Fast(args[0], "expected a tuple or list of rows")) == NULL ||
        (v = int_vector(args[1])) == NULL)
        goto done;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(rows), n = PySequence_Fast_GET_SIZE(v);
    PyObject **x = PySequence_Fast_ITEMS(v);
    if ((out = PyTuple_New(m)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < m; i++) {
        row = int_vector(PySequence_Fast_GET_ITEM(rows, i));
        if (row == NULL || check_length(row, n) < 0)
            goto fail;
        PyObject **r = PySequence_Fast_ITEMS(row);
        for (Py_ssize_t j = 0; j < n; j++) {
            if (PyObject_IsTrue(r[j]) && PyObject_IsTrue(x[j]) &&
                add_product(&acc, r[j], x[j]) < 0)
                goto fail;
        }
        if (acc == NULL && (acc = PyLong_FromLong(0)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, i, acc); /* the tuple takes the reference */
        acc = NULL;
        Py_CLEAR(row);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    Py_XDECREF(rows);
    Py_XDECREF(v);
    Py_XDECREF(row);
    Py_XDECREF(acc);
    return out;
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(tadd, "tadd(a, b): the entrywise sum of two int vectors."),
    ENTRY(tsub, "tsub(a, b): the entrywise difference of two int vectors."),
    ENTRY(tneg, "tneg(a): the entrywise negation of an int vector."),
    ENTRY(tscale, "tscale(a, k): every entry of a times the int k."),
    ENTRY(tdiv, "tdiv(a, k): every entry of a floor-divided by the int k."),
    ENTRY(tbool, "tbool(a): whether some entry of a is nonzero."),
    ENTRY(tcontent, "tcontent(a, g=0): gcd(g, *a)."),
    ENTRY(conv_reduce, "conv_reduce(a, b, rows): the first-level product of "
                       "a and b, reduced by rows."),
    ENTRY(matvec, "matvec(rows, v): the int matrix with these rows times v."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_tensorcore",
    "Compiled loops for the integer coordinate vectors of numberfield.",
    -1,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__tensorcore(void)
{
    if (math_gcd == NULL) {
        PyObject *math = PyImport_ImportModule("math");
        if (math == NULL)
            return NULL;
        math_gcd = PyObject_GetAttrString(math, "gcd");
        Py_DECREF(math);
        if (math_gcd == NULL)
            return NULL;
    }
    return PyModule_Create(&module);
}
