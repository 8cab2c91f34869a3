//! Tiny reverse-mode autodiff over [`Matrix`] values.
//!
//! A [`Tape`] is an arena of operation nodes built during the forward pass;
//! [`Tape::backward_from`] walks it in reverse, accumulating gradients.
//! Graph aggregation in the GNN is expressed either as multiplication by a
//! constant dense (row-normalized) adjacency matrix or — the fast path — as
//! [`Tape::spmm`] against a constant [`CsrAdj`], so the whole encoder is
//! expressible with the handful of ops here.
//!
//! ## Allocation reuse
//!
//! Every value, gradient and backward temporary lives in a buffer drawn
//! from the tape's internal pool. [`Tape::reset`] clears the node arena but
//! returns all buffers to the pool, so a training loop that calls `reset`
//! between samples reaches a steady state where the tape itself performs
//! **zero** heap allocation per step (callers may still allocate — e.g.
//! the GNN forward copies its two constant CSR adjacencies, a few hundred
//! bytes per sample, into `Rc` handles for the `spmm` nodes). Fused ops
//! ([`Tape::linear_bias_relu`],
//! [`Tape::add_bias_relu`]) collapse the matmul/bias/ReLU trio into one
//! node, shrinking both the arena and the backward pass.

use crate::matrix::Matrix;
use crate::sparse::CsrAdj;
use std::rc::Rc;

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Leaf value (input or parameter); no backward.
    Leaf,
    /// `a × b` (matrix product).
    MatMul(usize, usize),
    /// `adj × h` where `adj` is a constant sparse matrix (not a variable).
    Spmm(Rc<CsrAdj>, usize),
    /// `a + b` (same shape).
    Add(usize, usize),
    /// `a - b`.
    Sub(usize, usize),
    /// `a ⊙ b` elementwise.
    Mul(usize, usize),
    /// `a + bias` broadcast of 1×c row to each row of a.
    AddBias(usize, usize),
    /// Fused `relu(a + bias)` broadcast.
    AddBiasRelu(usize, usize),
    /// Fused `relu(x × w + bias)`.
    LinearBiasRelu(usize, usize, usize),
    /// `relu(a)`.
    Relu(usize),
    /// `sigmoid(a)`.
    Sigmoid(usize),
    /// `tanh(a)`.
    Tanh(usize),
    /// `a · s` scalar.
    Scale(usize, f64),
    /// Column concatenation `[a | b]`.
    ConcatCols(usize, usize, usize), // (a, b, a_cols)
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Matrix,
    grad: Matrix,
    /// Whether any gradient has reached this node in the current backward.
    touched: bool,
}

/// Arena of forward values + backward rules, with a recycled buffer pool.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: Vec<Vec<f64>>,
}

impl Tape {
    /// New empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear all nodes, recycling every buffer into the pool. After the
    /// first forward/backward cycle, subsequent cycles on a same-shaped
    /// graph allocate nothing.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            let v = node.value.into_buffer();
            if v.capacity() > 0 {
                self.pool.push(v);
            }
            let g = node.grad.into_buffer();
            if g.capacity() > 0 {
                self.pool.push(g);
            }
        }
    }

    /// Number of nodes currently on the tape.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A zeroed `r × c` matrix backed by a pooled buffer when available.
    fn alloc(&mut self, r: usize, c: usize) -> Matrix {
        match self.pool.pop() {
            Some(buf) => Matrix::from_buffer(r, c, buf),
            None => Matrix::zeros(r, c),
        }
    }

    /// An empty matrix backed by a pooled buffer; `_into` kernels reshape it.
    fn alloc_empty(&mut self) -> Matrix {
        match self.pool.pop() {
            Some(buf) => Matrix::from_buffer(0, 0, buf),
            None => Matrix::default(),
        }
    }

    fn recycle(&mut self, m: Matrix) {
        let buf = m.into_buffer();
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        let (r, c) = value.shape();
        let grad = self.alloc(r, c);
        self.nodes.push(Node {
            op,
            value,
            grad,
            touched: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Insert a leaf (input or parameter snapshot), taking ownership.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Insert a leaf by copying `value` into a pooled buffer — the
    /// allocation-free variant of [`Tape::leaf`] for parameter binding.
    pub fn leaf_copy(&mut self, value: &Matrix) -> Var {
        let mut v = self.alloc_empty();
        v.copy_from(value);
        self.push(Op::Leaf, v)
    }

    /// Current value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the loss w.r.t. `v` (valid after [`Tape::backward_from`]).
    pub fn grad(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].grad
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.alloc_empty();
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(Op::MatMul(a.0, b.0), out)
    }

    /// Sparse × dense product against a constant adjacency (not a variable;
    /// gradients flow only to `h`).
    pub fn spmm(&mut self, adj: Rc<CsrAdj>, h: Var) -> Var {
        let mut out = self.alloc_empty();
        adj.spmm_into(&self.nodes[h.0].value, &mut out);
        self.push(Op::Spmm(adj, h.0), out)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.alloc_empty();
        out.copy_from(&self.nodes[a.0].value);
        out.add_assign(&self.nodes[b.0].value);
        self.push(Op::Add(a.0, b.0), out)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.alloc_empty();
        out.copy_from(&self.nodes[a.0].value);
        out.axpy(-1.0, &self.nodes[b.0].value);
        self.push(Op::Sub(a.0, b.0), out)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut out = self.alloc(r, c);
        for ((o, &x), &y) in out
            .data_mut()
            .iter_mut()
            .zip(self.nodes[a.0].value.data())
            .zip(self.nodes[b.0].value.data())
        {
            *o = x * y;
        }
        self.push(Op::Mul(a.0, b.0), out)
    }

    /// Broadcast-add a 1×c bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let mut out = self.alloc_empty();
        out.copy_from(&self.nodes[a.0].value);
        broadcast_add_bias(&mut out, &self.nodes[bias.0].value, false);
        self.push(Op::AddBias(a.0, bias.0), out)
    }

    /// Fused `relu(a + bias)` broadcast — one node instead of two.
    pub fn add_bias_relu(&mut self, a: Var, bias: Var) -> Var {
        let mut out = self.alloc_empty();
        out.copy_from(&self.nodes[a.0].value);
        broadcast_add_bias(&mut out, &self.nodes[bias.0].value, true);
        self.push(Op::AddBiasRelu(a.0, bias.0), out)
    }

    /// Fused `relu(x × w + bias)` — one node instead of three.
    pub fn linear_bias_relu(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let mut out = self.alloc_empty();
        Matrix::linear_bias_relu_into(
            &self.nodes[x.0].value,
            &self.nodes[w.0].value,
            &self.nodes[bias.0].value,
            &mut out,
        );
        self.push(Op::LinearBiasRelu(x.0, w.0, bias.0), out)
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let out = self.map_of(a, |x| x.max(0.0));
        self.push(Op::Relu(a.0), out)
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let out = self.map_of(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a.0), out)
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.map_of(a, f64::tanh);
        self.push(Op::Tanh(a.0), out)
    }

    fn map_of(&mut self, a: Var, f: impl Fn(f64) -> f64) -> Matrix {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut out = self.alloc(r, c);
        for (o, &x) in out.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = f(x);
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let out = self.map_of(a, |x| x * s);
        self.push(Op::Scale(a.0, s), out)
    }

    /// Column concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let ac = self.nodes[a.0].value.cols();
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(Op::ConcatCols(a.0, b.0, ac), v)
    }

    /// Masked binary cross-entropy loss against `targets` for the rows
    /// selected by `mask` (1.0 = labeled, 0.0 = ignore); `pred` must hold
    /// probabilities in (0,1). Returns `(loss_value, d_loss/d_pred)` and the
    /// gradient is seeded internally — call [`Tape::backward_from`] with the
    /// returned gradient.
    pub fn bce_grad(pred: &Matrix, targets: &Matrix, mask: &Matrix) -> (f64, Matrix) {
        assert_eq!(pred.shape(), targets.shape());
        assert_eq!(pred.shape(), mask.shape());
        let eps = 1e-9;
        let labeled: f64 = mask.data().iter().sum::<f64>().max(1.0);
        let mut grad = Matrix::zeros(pred.rows(), pred.cols());
        let mut loss = 0.0;
        for i in 0..pred.data().len() {
            let m = mask.data()[i];
            if m == 0.0 {
                continue;
            }
            let p = pred.data()[i].clamp(eps, 1.0 - eps);
            let y = targets.data()[i];
            loss += -(y * p.ln() + (1.0 - y) * (1.0 - p).ln());
            grad.data_mut()[i] = (p - y) / (p * (1.0 - p)) / labeled;
        }
        (loss / labeled, grad)
    }

    /// Run backward from `output` with an explicit output gradient.
    pub fn backward_from(&mut self, output: Var, out_grad: Matrix) {
        assert_eq!(self.nodes[output.0].value.shape(), out_grad.shape());
        for n in &mut self.nodes {
            n.grad.fill_zero();
            n.touched = false;
        }
        self.nodes[output.0].grad.copy_from(&out_grad);
        self.nodes[output.0].touched = true;
        self.recycle(out_grad);

        for i in (0..=output.0).rev() {
            if !self.nodes[i].touched {
                continue;
            }
            let op = self.nodes[i].op.clone();
            let grad = std::mem::take(&mut self.nodes[i].grad);
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let mut ga = self.alloc_empty();
                    grad.matmul_nt_into(&self.nodes[b].value, &mut ga);
                    self.acc_owned(a, ga);
                    let mut gb = self.alloc_empty();
                    self.nodes[a].value.matmul_tn_into(&grad, &mut gb);
                    self.acc_owned(b, gb);
                }
                Op::Spmm(adj, h) => {
                    let mut gh = self.alloc_empty();
                    adj.spmm_transpose_into(&grad, &mut gh);
                    self.acc_owned(h, gh);
                }
                Op::Add(a, b) => {
                    self.acc_ref(a, &grad);
                    self.acc_ref(b, &grad);
                }
                Op::Sub(a, b) => {
                    self.acc_ref(a, &grad);
                    self.acc_scaled(b, -1.0, &grad);
                }
                Op::Mul(a, b) => {
                    let mut ga = self.alloc_empty();
                    ga.copy_from(&grad);
                    mul_elementwise_assign(&mut ga, &self.nodes[b].value);
                    self.acc_owned(a, ga);
                    let mut gb = self.alloc_empty();
                    gb.copy_from(&grad);
                    mul_elementwise_assign(&mut gb, &self.nodes[a].value);
                    self.acc_owned(b, gb);
                }
                Op::AddBias(a, bias) => {
                    self.acc_ref(a, &grad);
                    self.acc_col_sums(bias, &grad);
                }
                Op::AddBiasRelu(a, bias) => {
                    let mut dz = self.alloc_empty();
                    dz.copy_from(&grad);
                    relu_mask_assign(&mut dz, &self.nodes[i].value);
                    self.acc_ref(a, &dz);
                    self.acc_col_sums(bias, &dz);
                    self.recycle(dz);
                }
                Op::LinearBiasRelu(x, w, bias) => {
                    let mut dz = self.alloc_empty();
                    dz.copy_from(&grad);
                    relu_mask_assign(&mut dz, &self.nodes[i].value);
                    let mut gx = self.alloc_empty();
                    dz.matmul_nt_into(&self.nodes[w].value, &mut gx);
                    self.acc_owned(x, gx);
                    let mut gw = self.alloc_empty();
                    self.nodes[x].value.matmul_tn_into(&dz, &mut gw);
                    self.acc_owned(w, gw);
                    self.acc_col_sums(bias, &dz);
                    self.recycle(dz);
                }
                Op::Relu(a) => {
                    let mut ga = self.alloc_empty();
                    ga.copy_from(&grad);
                    relu_mask_assign(&mut ga, &self.nodes[i].value);
                    self.acc_owned(a, ga);
                }
                Op::Sigmoid(a) => {
                    let mut ga = self.alloc_empty();
                    ga.copy_from(&grad);
                    for (g, &s) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *g *= s * (1.0 - s);
                    }
                    self.acc_owned(a, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = self.alloc_empty();
                    ga.copy_from(&grad);
                    for (g, &t) in ga.data_mut().iter_mut().zip(self.nodes[i].value.data()) {
                        *g *= 1.0 - t * t;
                    }
                    self.acc_owned(a, ga);
                }
                Op::Scale(a, s) => {
                    self.acc_scaled(a, s, &grad);
                }
                Op::ConcatCols(a, b, a_cols) => {
                    let rows = grad.rows();
                    let total = grad.cols();
                    {
                        let na = &mut self.nodes[a];
                        na.touched = true;
                        for r in 0..rows {
                            let src = &grad.row(r)[..a_cols];
                            let dst = &mut na.grad.data_mut()[r * a_cols..(r + 1) * a_cols];
                            for (d, &g) in dst.iter_mut().zip(src) {
                                *d += g;
                            }
                        }
                    }
                    {
                        let b_cols = total - a_cols;
                        let nb = &mut self.nodes[b];
                        nb.touched = true;
                        for r in 0..rows {
                            let src = &grad.row(r)[a_cols..];
                            let dst = &mut nb.grad.data_mut()[r * b_cols..(r + 1) * b_cols];
                            for (d, &g) in dst.iter_mut().zip(src) {
                                *d += g;
                            }
                        }
                    }
                }
            }
            self.nodes[i].grad = grad;
        }
    }

    /// `nodes[idx].grad += g`, consuming and recycling `g`.
    fn acc_owned(&mut self, idx: usize, g: Matrix) {
        let n = &mut self.nodes[idx];
        n.grad.add_assign(&g);
        n.touched = true;
        self.recycle(g);
    }

    /// `nodes[idx].grad += g` from a borrowed gradient.
    fn acc_ref(&mut self, idx: usize, g: &Matrix) {
        let n = &mut self.nodes[idx];
        n.grad.add_assign(g);
        n.touched = true;
    }

    /// `nodes[idx].grad += s · g`.
    fn acc_scaled(&mut self, idx: usize, s: f64, g: &Matrix) {
        let n = &mut self.nodes[idx];
        n.grad.axpy(s, g);
        n.touched = true;
    }

    /// `nodes[idx].grad += column_sums(g)` (bias backward).
    fn acc_col_sums(&mut self, idx: usize, g: &Matrix) {
        let n = &mut self.nodes[idx];
        n.touched = true;
        let cols = g.cols();
        debug_assert_eq!(n.grad.cols(), cols);
        for r in 0..g.rows() {
            let src = g.row(r);
            let dst = n.grad.data_mut();
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }
}

/// `m[r][c] += bias[c]` for every row; optionally clamp at zero (ReLU).
fn broadcast_add_bias(m: &mut Matrix, bias: &Matrix, relu: bool) {
    assert_eq!(bias.rows(), 1);
    assert_eq!(bias.cols(), m.cols());
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = &mut m.data_mut()[r * cols..(r + 1) * cols];
        for (o, &b) in row.iter_mut().zip(bias.data()) {
            *o += b;
            if relu {
                *o = o.max(0.0);
            }
        }
    }
}

/// `m ⊙= other` elementwise.
fn mul_elementwise_assign(m: &mut Matrix, other: &Matrix) {
    debug_assert_eq!(m.shape(), other.shape());
    for (a, &b) in m.data_mut().iter_mut().zip(other.data()) {
        *a *= b;
    }
}

/// Zero `m` wherever the fused op's output `y` was clamped (`y <= 0`).
fn relu_mask_assign(m: &mut Matrix, y: &Matrix) {
    debug_assert_eq!(m.shape(), y.shape());
    for (g, &v) in m.data_mut().iter_mut().zip(y.data()) {
        if v <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of a scalar function of one leaf.
    fn check_grad(f: impl Fn(&mut Tape, Var) -> Var, x0: Matrix) {
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = f(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (1, 1), "loss must be scalar-shaped");
        tape.backward_from(y, Matrix::full(1, 1, 1.0));
        let analytic = tape.grad(x).clone();

        let h = 1e-6;
        for i in 0..x0.data().len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += h;
            let mut tp = Tape::new();
            let xp = tp.leaf(plus);
            let yp = f(&mut tp, xp);
            let mut minus = x0.clone();
            minus.data_mut()[i] -= h;
            let mut tm = Tape::new();
            let xm = tm.leaf(minus);
            let ym = f(&mut tm, xm);
            let numeric = (tp.value(yp).get(0, 0) - tm.value(ym).get(0, 0)) / (2.0 * h);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_of_quadratic() {
        // f(x) = sum(x ⊙ x) via x·xᵀ for a row vector.
        check_grad(
            |t, x| {
                let y = t.mul(x, x);
                // reduce 1×3 → scalar via matmul with ones.
                let ones = t.leaf(Matrix::col_vector(&[1.0, 1.0, 1.0]));
                t.matmul(y, ones)
            },
            Matrix::row_vector(&[1.0, -2.0, 0.5]),
        );
    }

    #[test]
    fn grad_through_relu_sigmoid() {
        check_grad(
            |t, x| {
                let r = t.relu(x);
                let s = t.sigmoid(r);
                let ones = t.leaf(Matrix::col_vector(&[1.0, 1.0, 1.0]));
                t.matmul(s, ones)
            },
            Matrix::row_vector(&[0.3, -0.7, 1.2]),
        );
    }

    #[test]
    fn grad_through_matmul_chain() {
        let w = Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.6]);
        check_grad(
            move |t, x| {
                let wv = t.leaf(w.clone());
                let h = t.matmul(x, wv);
                let th = t.tanh(h);
                let ones = t.leaf(Matrix::col_vector(&[1.0, 1.0]));
                t.matmul(th, ones)
            },
            Matrix::row_vector(&[0.5, -1.0, 0.25]),
        );
    }

    #[test]
    fn grad_through_concat_and_bias() {
        check_grad(
            |t, x| {
                let c = t.leaf(Matrix::row_vector(&[2.0]));
                let cat = t.concat_cols(x, c); // 1×4
                let bias = t.leaf(Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4]));
                let b = t.add_bias(cat, bias);
                let sq = t.mul(b, b);
                let ones = t.leaf(Matrix::col_vector(&[1.0; 4]));
                t.matmul(sq, ones)
            },
            Matrix::row_vector(&[1.0, 2.0, 3.0]),
        );
    }

    #[test]
    fn grad_through_fused_linear_bias_relu() {
        let w = Matrix::from_vec(3, 2, vec![0.4, -0.3, 0.2, 0.7, -0.6, 0.1]);
        check_grad(
            move |t, x| {
                let wv = t.leaf(w.clone());
                let bias = t.leaf(Matrix::row_vector(&[0.05, -0.1]));
                let h = t.linear_bias_relu(x, wv, bias);
                let ones = t.leaf(Matrix::col_vector(&[1.0, 1.0]));
                t.matmul(h, ones)
            },
            Matrix::row_vector(&[0.5, -1.0, 0.8]),
        );
    }

    #[test]
    fn grad_through_fused_add_bias_relu() {
        check_grad(
            |t, x| {
                let bias = t.leaf(Matrix::row_vector(&[0.2, -0.4, 0.1]));
                let h = t.add_bias_relu(x, bias);
                let ones = t.leaf(Matrix::col_vector(&[1.0; 3]));
                t.matmul(h, ones)
            },
            Matrix::row_vector(&[0.5, 0.3, -0.9]),
        );
    }

    #[test]
    fn fused_ops_match_composed_ops() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75]]);
        let w = Matrix::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, -2.0, 1.0]);
        let b = Matrix::row_vector(&[0.1, -0.2]);
        let mut t1 = Tape::new();
        let (xv, wv, bv) = (t1.leaf(x.clone()), t1.leaf(w.clone()), t1.leaf(b.clone()));
        let fused = t1.linear_bias_relu(xv, wv, bv);
        let mut t2 = Tape::new();
        let (xv2, wv2, bv2) = (t2.leaf(x), t2.leaf(w), t2.leaf(b));
        let mm = t2.matmul(xv2, wv2);
        let zb = t2.add_bias(mm, bv2);
        let composed = t2.relu(zb);
        assert_eq!(t1.value(fused), t2.value(composed));
    }

    #[test]
    fn spmm_gradient_matches_dense_matmul_gradient() {
        let adj = Matrix::from_rows(&[
            vec![0.0, 0.5, 0.5],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ]);
        let h0 = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.3, 0.7], vec![-1.1, 0.4]]);
        let seed = Matrix::from_rows(&[vec![0.2, -0.5], vec![1.0, 0.1], vec![-0.3, 0.8]]);

        let mut td = Tape::new();
        let a = td.leaf(adj.clone());
        let hd = td.leaf(h0.clone());
        let outd = td.matmul(a, hd);
        td.backward_from(outd, seed.clone());

        let mut ts = Tape::new();
        let hs = ts.leaf(h0);
        let csr = Rc::new(CsrAdj::from_dense(&adj));
        let outs = ts.spmm(csr, hs);
        ts.backward_from(outs, seed);

        assert_eq!(td.value(outd), ts.value(outs));
        assert_eq!(td.grad(hd), ts.grad(hs));
    }

    #[test]
    fn reset_recycles_and_reruns_identically() {
        let x = Matrix::row_vector(&[1.0, -2.0, 0.5]);
        let run = |tape: &mut Tape| -> (Matrix, Matrix) {
            let xv = tape.leaf_copy(&x);
            let y = tape.mul(xv, xv);
            let ones = tape.leaf(Matrix::col_vector(&[1.0; 3]));
            let loss = tape.matmul(y, ones);
            tape.backward_from(loss, Matrix::full(1, 1, 1.0));
            (tape.value(loss).clone(), tape.grad(xv).clone())
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        for _ in 0..3 {
            tape.reset();
            assert_eq!(tape.num_nodes(), 0);
            let again = run(&mut tape);
            assert_eq!(again, first, "reset must not change results");
        }
    }

    #[test]
    fn bce_grad_matches_finite_difference() {
        let targets = Matrix::col_vector(&[1.0, 0.0, 1.0]);
        let mask = Matrix::col_vector(&[1.0, 1.0, 0.0]);
        let pred = Matrix::col_vector(&[0.7, 0.2, 0.9]);
        let (loss, grad) = Tape::bce_grad(&pred, &targets, &mask);
        assert!(loss > 0.0);
        assert_eq!(grad.get(2, 0), 0.0, "masked row has zero grad");
        let h = 1e-6;
        for i in 0..2 {
            let mut p2 = pred.clone();
            p2.data_mut()[i] += h;
            let (l2, _) = Tape::bce_grad(&p2, &targets, &mask);
            let numeric = (l2 - loss) / h;
            assert!((grad.data()[i] - numeric).abs() < 1e-4);
        }
    }

    #[test]
    fn diamond_accumulates_both_paths() {
        // f(x) = sum((x + x) ⊙ x): grad must collect both uses of x.
        check_grad(
            |t, x| {
                let two_x = t.add(x, x);
                let y = t.mul(two_x, x);
                let ones = t.leaf(Matrix::col_vector(&[1.0, 1.0]));
                t.matmul(y, ones)
            },
            Matrix::row_vector(&[1.5, -0.5]),
        );
    }
}
