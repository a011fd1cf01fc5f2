#include "index/ttree.h"

#include <algorithm>
#include <bit>

#include "catalog/schema.h"  // wire helpers
#include "util/logging.h"

namespace mmdb {

namespace {

// Taller than any tree that fits in memory: an AVL tree of height h
// holds at least Fib(h + 2) - 1 nodes.
constexpr int32_t kMaxHeight = 64;

/// Checks a node that a descent reached from a parent of height `above`
/// (kMaxHeight + 1 for the root). Every node of a tree holds entries and
/// stands lower than its parent, so an empty node is Corruption, and so
/// is a child pointer that loops back: no loop can keep descending.
Status CheckDescent(const node::TTreeNode& n, int32_t above) {
  if (n.entries.empty()) {
    return Status::Corruption("empty T-Tree node on a descent");
  }
  if (n.height < 1 || n.height >= above) {
    return Status::Corruption("T-Tree node not below its parent");
  }
  return Status::OK();
}

node::Entry LowFence(int64_t key) {
  return node::Entry{key, EntityAddr{{0, 0}, 0}};
}
node::Entry HighFence(int64_t key) {
  return node::Entry{key, EntityAddr{{0xFFFFFFFFu, 0xFFFFFFFFu}, 0xFFFFFFFFu}};
}

// Meta payload: node capacity (u16), the relation's segment (u32), the
// root's link ref.
constexpr size_t kRootOffset = 2 + 4;

std::vector<uint8_t> MetaPayload(uint16_t capacity, SegmentId relation,
                                 EntityAddr root) {
  std::vector<uint8_t> p;
  wire::PutU16(&p, capacity);
  wire::PutU32(&p, relation);
  node::PutRef(&p, root);
  return p;
}

/// Reads the meta of the T-tree in `segment`.
Status ReadMeta(EntityStore& store, SegmentId segment, uint16_t* capacity,
                SegmentId* relation, EntityAddr* root) {
  auto bytes = store.Read(EntityAddr{{segment, 0}, 0});
  if (!bytes.ok()) return bytes.status();
  auto payload = node::ParseMeta(bytes.value());
  if (!payload.ok()) return payload.status();
  wire::Reader r(payload.value());
  if (!r.GetU16(capacity) || !r.GetU32(relation) ||
      !node::GetLink(payload.value(), kRootOffset, segment, root)) {
    return Status::Corruption("bad T-Tree meta payload");
  }
  return Status::OK();
}

}  // namespace

Result<TTree> TTree::Create(EntityStore& store, SegmentId segment,
                            SegmentId relation, uint16_t node_capacity) {
  return Build(store, segment, relation, {}, node_capacity);
}

Result<TTree> TTree::Build(EntityStore& store, SegmentId segment,
                           SegmentId relation,
                           std::span<const node::Entry> entries,
                           uint16_t node_capacity) {
  if (node_capacity < 2) {
    return Status::InvalidArgument("T-Tree node capacity must be >= 2");
  }
  for (const node::Entry& e : entries) {
    MMDB_RETURN_IF_ERROR(node::CheckValue(e.value, relation));
  }
  // Reserve the meta first: it must be the segment's first entity.
  auto meta_addr = store.Insert(
      segment, node::SerializeMeta(
                   MetaPayload(node_capacity, relation, EntityAddr::Null())));
  if (!meta_addr.ok()) return meta_addr.status();
  if (meta_addr.value() != EntityAddr{{segment, 0}, 0}) {
    return Status::InvalidArgument("T-Tree segment is not empty");
  }
  TTree t(segment, relation, meta_addr.value(), node_capacity);
  if (entries.empty()) return t;

  std::vector<node::Entry> sorted(entries.begin(), entries.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t nodes = (sorted.size() + node_capacity - 1) / node_capacity;
  auto root = t.BuildSubtree(store, sorted, nodes, 0, nodes);
  if (!root.ok()) return root.status();
  MMDB_RETURN_IF_ERROR(t.SetRoot(store, root.value()));
  return t;
}

Result<EntityAddr> TTree::BuildSubtree(EntityStore& store,
                                       std::span<const node::Entry> sorted,
                                       size_t nodes, size_t lo,
                                       size_t hi) const {
  if (lo == hi) return EntityAddr::Null();
  const size_t mid = lo + (hi - lo) / 2;
  auto left = BuildSubtree(store, sorted, nodes, lo, mid);
  if (!left.ok()) return left.status();
  auto right = BuildSubtree(store, sorted, nodes, mid + 1, hi);
  if (!right.ok()) return right.status();
  node::TTreeNode n;
  n.capacity = node_capacity_;
  n.left = left.value();
  n.right = right.value();
  // A median split of m nodes has height bit_width(m): its larger child
  // holds floor(m / 2) nodes.
  n.height = static_cast<int32_t>(std::bit_width(hi - lo));
  // Node i of k holds sorted entries [i·s/k, (i+1)·s/k) of s: ⌊s/k⌋ or
  // ⌈s/k⌉ of them, at most the capacity.
  const size_t begin = mid * sorted.size() / nodes;
  const size_t end = (mid + 1) * sorted.size() / nodes;
  n.entries.assign(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                   sorted.begin() + static_cast<std::ptrdiff_t>(end));
  return store.Insert(segment_, n.Serialize());
}

Result<TTree> TTree::Attach(EntityStore& store, SegmentId segment) {
  uint16_t capacity = 0;
  SegmentId relation = 0;
  EntityAddr root;
  MMDB_RETURN_IF_ERROR(ReadMeta(store, segment, &capacity, &relation, &root));
  return TTree(segment, relation, EntityAddr{{segment, 0}, 0}, capacity);
}

Result<EntityAddr> TTree::root(EntityStore& store) const {
  uint16_t capacity = 0;
  SegmentId relation = 0;
  EntityAddr root;
  MMDB_RETURN_IF_ERROR(ReadMeta(store, segment_, &capacity, &relation, &root));
  return root;
}

Status TTree::SetRoot(EntityStore& store, EntityAddr root) const {
  std::vector<uint8_t> meta =
      node::SerializeMeta(MetaPayload(node_capacity_, relation_, root));
  return store.Update(meta_addr_, meta);
}

Result<node::TTreeNode> TTree::ReadNode(EntityStore& store,
                                        EntityAddr a) const {
  auto bytes = store.Read(a);
  if (!bytes.ok()) return bytes.status();
  return node::TTreeNode::Parse(bytes.value(), node_segments());
}

Status TTree::WriteNode(EntityStore& store, EntityAddr a,
                        const node::TTreeNode& n) const {
  return store.Update(a, n.Serialize());
}

Result<int32_t> TTree::HeightOf(EntityStore& store, EntityAddr a) const {
  if (a.IsNull()) return 0;
  auto n = ReadNode(store, a);
  if (!n.ok()) return n.status();
  return n.value().height;
}

Result<EntityAddr> TTree::NewLeaf(EntityStore& store,
                                  const node::Entry& e) const {
  node::TTreeNode n;
  n.capacity = node_capacity_;
  n.height = 1;
  n.entries.push_back(e);
  return store.Insert(segment_, n.Serialize());
}

Result<EntityAddr> TTree::RotateRight(EntityStore& store, EntityAddr x) const {
  auto xr = ReadNode(store, x);
  if (!xr.ok()) return xr.status();
  node::TTreeNode xn = std::move(xr).value();
  EntityAddr l = xn.left;
  auto lr = ReadNode(store, l);
  if (!lr.ok()) return lr.status();
  node::TTreeNode ln = std::move(lr).value();

  xn.left = ln.right;
  auto hl = HeightOf(store, xn.left);
  if (!hl.ok()) return hl.status();
  auto hr = HeightOf(store, xn.right);
  if (!hr.ok()) return hr.status();
  xn.height = 1 + std::max(hl.value(), hr.value());
  MMDB_RETURN_IF_ERROR(WriteNode(store, x, xn));

  ln.right = x;
  auto hll = HeightOf(store, ln.left);
  if (!hll.ok()) return hll.status();
  ln.height = 1 + std::max(hll.value(), xn.height);
  MMDB_RETURN_IF_ERROR(WriteNode(store, l, ln));
  return l;
}

Result<EntityAddr> TTree::RotateLeft(EntityStore& store, EntityAddr x) const {
  auto xr = ReadNode(store, x);
  if (!xr.ok()) return xr.status();
  node::TTreeNode xn = std::move(xr).value();
  EntityAddr r = xn.right;
  auto rr = ReadNode(store, r);
  if (!rr.ok()) return rr.status();
  node::TTreeNode rn = std::move(rr).value();

  xn.right = rn.left;
  auto hl = HeightOf(store, xn.left);
  if (!hl.ok()) return hl.status();
  auto hr = HeightOf(store, xn.right);
  if (!hr.ok()) return hr.status();
  xn.height = 1 + std::max(hl.value(), hr.value());
  MMDB_RETURN_IF_ERROR(WriteNode(store, x, xn));

  rn.left = x;
  auto hrr = HeightOf(store, rn.right);
  if (!hrr.ok()) return hrr.status();
  rn.height = 1 + std::max(xn.height, hrr.value());
  MMDB_RETURN_IF_ERROR(WriteNode(store, r, rn));
  return r;
}

Status TTree::RebalancePath(EntityStore& store,
                            const std::vector<EntityAddr>& path) const {
  for (size_t i = path.size(); i-- > 0;) {
    EntityAddr a = path[i];
    auto nr = ReadNode(store, a);
    if (!nr.ok()) return nr.status();
    node::TTreeNode n = std::move(nr).value();
    auto hl = HeightOf(store, n.left);
    if (!hl.ok()) return hl.status();
    auto hr = HeightOf(store, n.right);
    if (!hr.ok()) return hr.status();
    int32_t bf = hl.value() - hr.value();
    EntityAddr new_root = a;
    if (bf > 1) {
      auto lnode = ReadNode(store, n.left);
      if (!lnode.ok()) return lnode.status();
      auto hll = HeightOf(store, lnode.value().left);
      if (!hll.ok()) return hll.status();
      auto hlr = HeightOf(store, lnode.value().right);
      if (!hlr.ok()) return hlr.status();
      if (hll.value() < hlr.value()) {
        auto nl = RotateLeft(store, n.left);
        if (!nl.ok()) return nl.status();
        auto n2 = ReadNode(store, a);
        if (!n2.ok()) return n2.status();
        node::TTreeNode nn = std::move(n2).value();
        nn.left = nl.value();
        MMDB_RETURN_IF_ERROR(WriteNode(store, a, nn));
      }
      auto res = RotateRight(store, a);
      if (!res.ok()) return res.status();
      new_root = res.value();
    } else if (bf < -1) {
      auto rnode = ReadNode(store, n.right);
      if (!rnode.ok()) return rnode.status();
      auto hrl = HeightOf(store, rnode.value().left);
      if (!hrl.ok()) return hrl.status();
      auto hrr = HeightOf(store, rnode.value().right);
      if (!hrr.ok()) return hrr.status();
      if (hrl.value() > hrr.value()) {
        auto nr2 = RotateRight(store, n.right);
        if (!nr2.ok()) return nr2.status();
        auto n2 = ReadNode(store, a);
        if (!n2.ok()) return n2.status();
        node::TTreeNode nn = std::move(n2).value();
        nn.right = nr2.value();
        MMDB_RETURN_IF_ERROR(WriteNode(store, a, nn));
      }
      auto res = RotateLeft(store, a);
      if (!res.ok()) return res.status();
      new_root = res.value();
    } else {
      int32_t h = 1 + std::max(hl.value(), hr.value());
      if (h != n.height) {
        n.height = h;
        MMDB_RETURN_IF_ERROR(WriteNode(store, a, n));
      }
    }
    if (!(new_root == a)) {
      if (i == 0) {
        MMDB_RETURN_IF_ERROR(SetRoot(store, new_root));
      } else {
        EntityAddr parent = path[i - 1];
        auto pr = ReadNode(store, parent);
        if (!pr.ok()) return pr.status();
        node::TTreeNode pn = std::move(pr).value();
        if (pn.left == a) {
          pn.left = new_root;
        } else if (pn.right == a) {
          pn.right = new_root;
        } else {
          return Status::Corruption("rebalance path is not a parent chain");
        }
        MMDB_RETURN_IF_ERROR(WriteNode(store, parent, pn));
      }
    }
  }
  return Status::OK();
}

Status TTree::Insert(EntityStore& store, int64_t key, EntityAddr value) {
  MMDB_RETURN_IF_ERROR(node::CheckValue(value, relation_));
  node::Entry e{key, value};
  auto root_r = root(store);
  if (!root_r.ok()) return root_r.status();
  EntityAddr r = root_r.value();
  if (r.IsNull()) {
    auto leaf = NewLeaf(store, e);
    if (!leaf.ok()) return leaf.status();
    return SetRoot(store, leaf.value());
  }

  std::vector<EntityAddr> path;
  EntityAddr cur = r;
  bool found_bounding = false;
  int fell_dir = 0;
  node::TTreeNode cur_node;
  for (int32_t above = kMaxHeight + 1;; above = cur_node.height) {
    auto nr = ReadNode(store, cur);
    if (!nr.ok()) return nr.status();
    cur_node = std::move(nr).value();
    MMDB_RETURN_IF_ERROR(CheckDescent(cur_node, above));
    path.push_back(cur);
    if (e < cur_node.entries.front()) {
      if (cur_node.left.IsNull()) {
        fell_dir = -1;
        break;
      }
      cur = cur_node.left;
    } else if (cur_node.entries.back() < e) {
      if (cur_node.right.IsNull()) {
        fell_dir = +1;
        break;
      }
      cur = cur_node.right;
    } else {
      found_bounding = true;
      break;
    }
  }

  if (found_bounding) {
    if (cur_node.entries.size() < node_capacity_) {
      return store.NodeInsertEntry(cur, e);
    }
    // Bounding node full: displace its minimum into the left subtree.
    node::Entry m = cur_node.entries.front();
    MMDB_RETURN_IF_ERROR(store.NodeRemoveEntry(cur, m));
    MMDB_RETURN_IF_ERROR(store.NodeInsertEntry(cur, e));
    if (cur_node.left.IsNull()) {
      auto leaf = NewLeaf(store, m);
      if (!leaf.ok()) return leaf.status();
      auto n2 = ReadNode(store, cur);
      if (!n2.ok()) return n2.status();
      node::TTreeNode nn = std::move(n2).value();
      nn.left = leaf.value();
      MMDB_RETURN_IF_ERROR(WriteNode(store, cur, nn));
      return RebalancePath(store, path);
    }
    // Greatest-lower-bound node: rightmost node of the left subtree.
    EntityAddr d = cur_node.left;
    node::TTreeNode dn;
    for (int32_t above = cur_node.height;; above = dn.height) {
      auto dr = ReadNode(store, d);
      if (!dr.ok()) return dr.status();
      dn = std::move(dr).value();
      MMDB_RETURN_IF_ERROR(CheckDescent(dn, above));
      path.push_back(d);
      if (dn.right.IsNull()) break;
      d = dn.right;
    }
    if (dn.entries.size() < node_capacity_) {
      return store.NodeInsertEntry(d, m);
    }
    auto leaf = NewLeaf(store, m);
    if (!leaf.ok()) return leaf.status();
    dn.right = leaf.value();
    MMDB_RETURN_IF_ERROR(WriteNode(store, d, dn));
    return RebalancePath(store, path);
  }

  // Fell off the tree at `cur`.
  if (cur_node.entries.size() < node_capacity_) {
    return store.NodeInsertEntry(cur, e);
  }
  auto leaf = NewLeaf(store, e);
  if (!leaf.ok()) return leaf.status();
  if (fell_dir < 0) {
    cur_node.left = leaf.value();
  } else {
    cur_node.right = leaf.value();
  }
  MMDB_RETURN_IF_ERROR(WriteNode(store, cur, cur_node));
  return RebalancePath(store, path);
}

Status TTree::Remove(EntityStore& store, int64_t key, EntityAddr value) {
  MMDB_RETURN_IF_ERROR(node::CheckValue(value, relation_));
  node::Entry e{key, value};
  auto root_r = root(store);
  if (!root_r.ok()) return root_r.status();
  EntityAddr cur = root_r.value();
  if (cur.IsNull()) return Status::NotFound("T-Tree empty");

  std::vector<EntityAddr> path;
  node::TTreeNode cur_node;
  for (int32_t above = kMaxHeight + 1;; above = cur_node.height) {
    auto nr = ReadNode(store, cur);
    if (!nr.ok()) return nr.status();
    cur_node = std::move(nr).value();
    MMDB_RETURN_IF_ERROR(CheckDescent(cur_node, above));
    path.push_back(cur);
    if (e < cur_node.entries.front()) {
      if (cur_node.left.IsNull()) return Status::NotFound("entry not in tree");
      cur = cur_node.left;
    } else if (cur_node.entries.back() < e) {
      if (cur_node.right.IsNull()) {
        return Status::NotFound("entry not in tree");
      }
      cur = cur_node.right;
    } else {
      break;  // bounding node: the entry is here or nowhere
    }
  }
  MMDB_RETURN_IF_ERROR(store.NodeRemoveEntry(cur, e));
  auto nr = ReadNode(store, cur);
  if (!nr.ok()) return nr.status();
  cur_node = std::move(nr).value();
  if (!cur_node.entries.empty()) {
    return Status::OK();  // no structural change
  }

  if (!cur_node.left.IsNull() && !cur_node.right.IsNull()) {
    // Empty internal node: refill with its greatest lower bound.
    EntityAddr d = cur_node.left;
    node::TTreeNode dn;
    for (int32_t above = cur_node.height;; above = dn.height) {
      auto dr = ReadNode(store, d);
      if (!dr.ok()) return dr.status();
      dn = std::move(dr).value();
      MMDB_RETURN_IF_ERROR(CheckDescent(dn, above));
      path.push_back(d);
      if (dn.right.IsNull()) break;
      d = dn.right;
    }
    node::Entry dm = dn.entries.back();
    MMDB_RETURN_IF_ERROR(store.NodeRemoveEntry(d, dm));
    MMDB_RETURN_IF_ERROR(store.NodeInsertEntry(cur, dm));
    auto dr = ReadNode(store, d);
    if (!dr.ok()) return dr.status();
    if (!dr.value().entries.empty()) {
      return RebalancePath(store, path);
    }
    // Donor emptied; splice it out (it has no right child).
    EntityAddr repl = dr.value().left;
    MMDB_RETURN_IF_ERROR(store.Delete(d));
    path.pop_back();
    EntityAddr parent = path.back();
    auto pr = ReadNode(store, parent);
    if (!pr.ok()) return pr.status();
    node::TTreeNode pn = std::move(pr).value();
    if (pn.left == d) {
      pn.left = repl;
    } else if (pn.right == d) {
      pn.right = repl;
    } else {
      return Status::Corruption("donor parent mismatch");
    }
    MMDB_RETURN_IF_ERROR(WriteNode(store, parent, pn));
    return RebalancePath(store, path);
  }

  // Empty node with at most one child: splice it out.
  EntityAddr repl =
      cur_node.left.IsNull() ? cur_node.right : cur_node.left;
  MMDB_RETURN_IF_ERROR(store.Delete(cur));
  path.pop_back();
  if (path.empty()) {
    return SetRoot(store, repl);
  }
  EntityAddr parent = path.back();
  auto pr = ReadNode(store, parent);
  if (!pr.ok()) return pr.status();
  node::TTreeNode pn = std::move(pr).value();
  if (pn.left == cur) {
    pn.left = repl;
  } else if (pn.right == cur) {
    pn.right = repl;
  } else {
    return Status::Corruption("spliced node's parent mismatch");
  }
  MMDB_RETURN_IF_ERROR(WriteNode(store, parent, pn));
  return RebalancePath(store, path);
}

namespace {

/// Appends the entries of the subtree at `a` within [lo, hi], in order;
/// `above` is the height of the node `a` hangs from.
Status Collect(EntityStore& store, node::Segments segments, EntityAddr a,
               int32_t above, const node::Entry& lo, const node::Entry& hi,
               std::vector<node::Entry>* out);

}  // namespace

Result<std::vector<EntityAddr>> TTree::Lookup(EntityStore& store,
                                              int64_t key) const {
  auto entries = Range(store, key, key);
  if (!entries.ok()) return entries.status();
  std::vector<EntityAddr> out;
  out.reserve(entries.value().size());
  for (const node::Entry& e : entries.value()) out.push_back(e.value);
  return out;
}

Result<std::vector<node::Entry>> TTree::Range(EntityStore& store, int64_t lo,
                                              int64_t hi) const {
  auto root_r = root(store);
  if (!root_r.ok()) return root_r.status();
  std::vector<node::Entry> out;
  MMDB_RETURN_IF_ERROR(Collect(store, node_segments(), root_r.value(),
                               kMaxHeight + 1, LowFence(lo), HighFence(hi),
                               &out));
  return out;
}

namespace {

Status Collect(EntityStore& store, node::Segments segments, EntityAddr a,
               int32_t above, const node::Entry& lo, const node::Entry& hi,
               std::vector<node::Entry>* out) {
  if (a.IsNull()) return Status::OK();
  auto bytes = store.Read(a);
  if (!bytes.ok()) return bytes.status();
  auto nr = node::TTreeNode::Parse(bytes.value(), segments);
  if (!nr.ok()) return nr.status();
  const node::TTreeNode& n = nr.value();
  MMDB_RETURN_IF_ERROR(CheckDescent(n, above));
  if (lo < n.entries.front()) {
    MMDB_RETURN_IF_ERROR(
        Collect(store, segments, n.left, n.height, lo, hi, out));
  }
  for (const node::Entry& e : n.entries) {
    if (!(e < lo) && !(hi < e)) out->push_back(e);
  }
  if (n.entries.back() < hi) {
    MMDB_RETURN_IF_ERROR(
        Collect(store, segments, n.right, n.height, lo, hi, out));
  }
  return Status::OK();
}

Result<size_t> CountSubtree(EntityStore& store, node::Segments segments,
                            EntityAddr a, int32_t above) {
  if (a.IsNull()) return size_t{0};
  auto bytes = store.Read(a);
  if (!bytes.ok()) return bytes.status();
  auto nr = node::TTreeNode::Parse(bytes.value(), segments);
  if (!nr.ok()) return nr.status();
  const node::TTreeNode& n = nr.value();
  MMDB_RETURN_IF_ERROR(CheckDescent(n, above));
  auto l = CountSubtree(store, segments, n.left, n.height);
  if (!l.ok()) return l.status();
  auto r = CountSubtree(store, segments, n.right, n.height);
  if (!r.ok()) return r.status();
  return l.value() + r.value() + n.entries.size();
}

}  // namespace

Result<size_t> TTree::Size(EntityStore& store) const {
  auto root_r = root(store);
  if (!root_r.ok()) return root_r.status();
  return CountSubtree(store, node_segments(), root_r.value(), kMaxHeight + 1);
}

Status TTree::CheckSubtree(EntityStore& store, EntityAddr a, bool has_lo,
                           node::Entry lo, bool has_hi, node::Entry hi,
                           int32_t* height_out) const {
  if (a.IsNull()) {
    *height_out = 0;
    return Status::OK();
  }
  auto nr = ReadNode(store, a);
  if (!nr.ok()) return nr.status();
  const node::TTreeNode& n = nr.value();
  if (n.entries.empty()) return Status::Corruption("empty T-Tree node");
  if (n.entries.size() > node_capacity_) {
    return Status::Corruption("overfull T-Tree node");
  }
  for (size_t i = 1; i < n.entries.size(); ++i) {
    if (!(n.entries[i - 1] < n.entries[i])) {
      return Status::Corruption("unsorted/duplicate entries in node");
    }
  }
  if (has_lo && !(lo < n.entries.front())) {
    return Status::Corruption("BST lower bound violated");
  }
  if (has_hi && !(n.entries.back() < hi)) {
    return Status::Corruption("BST upper bound violated");
  }
  int32_t hl, hr;
  MMDB_RETURN_IF_ERROR(
      CheckSubtree(store, n.left, has_lo, lo, true, n.entries.front(), &hl));
  MMDB_RETURN_IF_ERROR(
      CheckSubtree(store, n.right, true, n.entries.back(), has_hi, hi, &hr));
  if (n.height != 1 + std::max(hl, hr)) {
    return Status::Corruption("height bookkeeping wrong");
  }
  if (hl - hr > 1 || hr - hl > 1) {
    return Status::Corruption("AVL balance violated");
  }
  *height_out = n.height;
  return Status::OK();
}

Status TTree::CheckInvariants(EntityStore& store) const {
  auto root_r = root(store);
  if (!root_r.ok()) return root_r.status();
  int32_t h;
  return CheckSubtree(store, root_r.value(), false, {}, false, {}, &h);
}

}  // namespace mmdb
