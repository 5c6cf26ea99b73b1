/* Compiled word kernels. Results match ``pyops``, the reference and the
 * fallback, and so do the exception types: ValueError for a letter the
 * image table (one image per letter slot, in letter_key order) does not
 * cover or a negative max_len, TypeError for a table or image that is not
 * a sequence, or a max_len that is not an int or None.
 *
 * Letters are copied into C arrays of long. A value that does not fit, or
 * LONG_MIN, is rejected, so negating a letter never overflows, and every
 * table index is checked before it is used. Unlike pyops, the kernels
 * reject such letters, in words and in images: OverflowError in the
 * table-free kernels, ValueError in the table kernels. words.MAX_RANK keeps
 * them out of every word the package parses and every WhiteheadAuto.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* What a kernel does to a word, as bits: free reduction, stripping the
 * cancelling ends (cyclic reduction), rotating to the least rotation. */
enum { REDUCE = 1, STRIP = 2, ROTATE = 4 };

/* Copy an int sequence into a fresh array (free with PyMem_Free). A value
 * outside (LONG_MIN, LONG_MAX] raises `range_error`. */
static long *
unbox(PyObject *seq, Py_ssize_t *n_out, PyObject *range_error)
{
    /* A tuple cannot change while its items are converted. */
    PyObject *items = PySequence_Tuple(seq);
    if (items == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(items);
    long *buf = PyMem_New(long, n ? n : 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyTuple_GET_ITEM(items, i);
        int overflow;
        long a = PyLong_AsLongAndOverflow(item, &overflow);
        if (a == -1 && PyErr_Occurred())
            goto fail;
        if (overflow || a == LONG_MIN) {
            PyErr_Format(range_error, "letter %R is out of range", item);
            goto fail;
        }
        buf[i] = a;
    }
    Py_DECREF(items);
    *n_out = n;
    return buf;
fail:
    Py_DECREF(items);
    PyMem_Free(buf);
    return NULL;
}

/* Push one letter onto a freely reduced stack, cancelling its inverse. */
static inline void
push(long *stack, Py_ssize_t *top, long b)
{
    if (*top > 0 && stack[*top - 1] == -b)
        (*top)--;
    else
        stack[(*top)++] = b;
}

/* pyops.letter_key plus one, for ordering: x1 < x1^-1 < x2 < ..., 0 first.
 * Less one, it is a nonzero letter's slot in an image table. */
static inline unsigned long
order(long a)
{
    return a > 0 ? 2 * (unsigned long)a - 1 : 2 * (unsigned long)-a;
}

/* Start of the least rotation of w[0:n] (two-pointer scan, linear time). */
static Py_ssize_t
least_start(const long *w, Py_ssize_t n)
{
    Py_ssize_t i = 0, j = 1, k = 0;
    while (i < n && j < n && k < n) {
        unsigned long a = order(w[i + k < n ? i + k : i + k - n]);
        unsigned long b = order(w[j + k < n ? j + k : j + k - n]);
        if (a == b) {
            k++;
            continue;
        }
        if (a > b)
            i += k + 1;
        else
            j += k + 1;
        if (i == j)
            j++;
        k = 0;
    }
    return i < j ? i : j;
}

/* buf[0:n], with its ends stripped and rotated as `form` asks, as a tuple
 * of ints; None, with nothing rotated or boxed, when what is left is
 * longer than max_len. */
static PyObject *
box(const long *buf, Py_ssize_t n, int form, Py_ssize_t max_len)
{
    Py_ssize_t lo = 0, hi = n, best = 0;
    if (form & STRIP)
        while (hi - lo >= 2 && buf[lo] == -buf[hi - 1]) {
            lo++;
            hi--;
        }
    Py_ssize_t m = hi - lo;
    if (m > max_len)
        Py_RETURN_NONE;
    if (form & ROTATE)
        best = least_start(buf + lo, m);
    PyObject *out = PyTuple_New(m);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t j = 0; j < m; j++) {
        PyObject *a = PyLong_FromLong(buf[lo + (best + j < m ? best + j : best + j - m)]);
        if (a == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, j, a);
    }
    return out;
}

/* free_reduce, cyclic_reduce, canonical_cyclic and least_rotation. */
static PyObject *
word(PyObject *letters, int form)
{
    Py_ssize_t n, top = 0;
    long *buf = unbox(letters, &n, PyExc_OverflowError);
    if (buf == NULL)
        return NULL;
    if (form & REDUCE)
        for (Py_ssize_t i = 0; i < n; i++)
            push(buf, &top, buf[i]);  /* in place: top <= i */
    else
        top = n;
    PyObject *out = box(buf, top, form, PY_SSIZE_T_MAX);
    PyMem_Free(buf);
    return out;
}

/* Substitute each letter by its image, table[k] for k its slot, and freely
 * reduce, into a fresh array (free with PyMem_Free). Each image used is
 * copied once. Errors come in the order pyops raises them: letter 0, then
 * letter by letter a slot past the table or an image that is not a sequence. */
static long *
substitute(PyObject *const *args, Py_ssize_t *len_out)
{
    Py_ssize_t n, slots = 0, top = 0, total = 0, *len = NULL;
    long *src = NULL, *out = NULL, **img = NULL;
    PyObject *table = NULL;
    if ((src = unbox(args[0], &n, PyExc_ValueError)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        if (src[i] == 0) {
            PyErr_SetString(PyExc_ValueError, "letter 0 has no image");
            goto done;
        }
    if (n == 0) {  /* no letter reads the table, so it is not checked */
        *len_out = 0;
        out = PyMem_New(long, 1);
        goto done;
    }
    if (!PySequence_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "the image table must be a sequence");
        goto done;
    }
    /* A tuple cannot change, or drop an image, while images are copied. */
    if ((table = PySequence_Tuple(args[1])) == NULL)
        goto done;
    slots = PyTuple_GET_SIZE(table);
    img = PyMem_Calloc(slots ? slots : 1, sizeof(long *));
    len = PyMem_Calloc(slots ? slots : 1, sizeof(Py_ssize_t));
    if (img == NULL || len == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        size_t k = order(src[i]) - 1;
        if (k >= (size_t)slots) {
            PyErr_Format(PyExc_ValueError, "letter %ld has no image in the table", src[i]);
            goto done;
        }
        if (img[k] == NULL
            && (img[k] = unbox(PyTuple_GET_ITEM(table, k), &len[k], PyExc_ValueError)) == NULL)
            goto done;
        if (len[k] > PY_SSIZE_T_MAX - total)
            goto done;
        total += len[k];
    }
    if ((out = PyMem_New(long, total ? total : 1)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        size_t k = order(src[i]) - 1;
        for (Py_ssize_t j = 0; j < len[k]; j++)
            push(out, &top, img[k][j]);
    }
    *len_out = top;
done:
    if (out == NULL && !PyErr_Occurred())
        PyErr_NoMemory();  /* an allocation failed, or `total` would overflow */
    for (Py_ssize_t k = 0; img != NULL && k < slots; k++)
        PyMem_Free(img[k]);
    PyMem_Free(img);
    PyMem_Free(len);
    Py_XDECREF(table);
    PyMem_Free(src);
    return out;
}

/* max_len of apply_images_canonical: None is no bound, PY_SSIZE_T_MAX, and
 * so is any larger int. */
static int
bound(PyObject *arg, Py_ssize_t *max_len)
{
    *max_len = PY_SSIZE_T_MAX;
    if (arg == Py_None)
        return 0;
    if (!PyLong_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "max_len must be an int or None, got %R", arg);
        return -1;
    }
    *max_len = PyNumber_AsSsize_t(arg, NULL);  /* clipped, never an error */
    if (*max_len < 0) {
        PyErr_Format(PyExc_ValueError, "max_len must be >= 0, got %R", arg);
        return -1;
    }
    return 0;
}

/* apply_images (form 0) and apply_images_canonical, whose third argument
 * is an optional max_len. */
static PyObject *
images(PyObject *const *args, Py_ssize_t nargs, int form)
{
    Py_ssize_t n, max_len = PY_SSIZE_T_MAX;
    if (form == 0 ? nargs != 2 : nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, form == 0 ? "expected (letters, images)"
                        : "expected (letters, images[, max_len])");
        return NULL;
    }
    if (nargs == 3 && bound(args[2], &max_len) < 0)
        return NULL;
    long *buf = substitute(args, &n);
    if (buf == NULL)
        return NULL;
    PyObject *out = box(buf, n, form, max_len);
    PyMem_Free(buf);
    return out;
}

static PyObject *
free_reduce(PyObject *self, PyObject *letters)
{
    return word(letters, REDUCE);
}

static PyObject *
cyclic_reduce(PyObject *self, PyObject *letters)
{
    return word(letters, REDUCE | STRIP);
}

static PyObject *
canonical_cyclic(PyObject *self, PyObject *letters)
{
    return word(letters, REDUCE | STRIP | ROTATE);
}

static PyObject *
least_rotation(PyObject *self, PyObject *letters)
{
    return word(letters, ROTATE);
}

static PyObject *
apply_images(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return images(args, nargs, 0);
}

static PyObject *
apply_images_canonical(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return images(args, nargs, STRIP | ROTATE);
}

static PyMethodDef methods[] = {
    {"free_reduce", free_reduce, METH_O,
     "Freely reduced form of a letter sequence, as a tuple."},
    {"cyclic_reduce", cyclic_reduce, METH_O,
     "Cyclically reduced form: freely reduce, then strip cancelling ends."},
    {"canonical_cyclic", canonical_cyclic, METH_O,
     "Canonical representative of the conjugacy class of a letter sequence."},
    {"least_rotation", least_rotation, METH_O,
     "Lexicographically least rotation under the canonical letter order."},
    {"apply_images", (PyCFunction)(void (*)(void))apply_images, METH_FASTCALL,
     "Substitute each letter by its image and freely reduce (see pyops)."},
    {"apply_images_canonical", (PyCFunction)(void (*)(void))apply_images_canonical,
     METH_FASTCALL, "Image of a conjugacy class: substitute, then canonical cyclic form;\n"
     "None when the cyclic reduction is longer than the optional max_len."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "disksurgery._kernels._core",
    .m_doc = "Compiled word kernels; the same results as pyops.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
