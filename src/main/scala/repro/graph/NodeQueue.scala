package repro.graph

/** A reusable BFS frontier over nodes `0 until n`: an epoch-stamped visited
  * set plus the visited nodes in visit order, which is also the BFS queue.
  * The reverse mRR sampler keeps one per worker, so that drawing a set
  * allocates at most its output array; the forward observation BFS uses one
  * per call. Not thread-safe.
  */
private[repro] final class NodeQueue(n: Int) {
  /** `mark(v) == epoch` iff v is in the current set; an epoch bump clears
    * every mark, and the array is zeroed only when the epoch wraps.
    */
  private val mark = new Array[Int](n)
  var epoch = 0
  /** The current set in visit order. BFS visits in append order, so this
    * is also the BFS queue.
    */
  private var buf = new Array[Int](64)
  var size = 0

  def begin(): Unit = {
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(mark, 0); epoch = 0 }
    epoch += 1
    size = 0
  }

  @inline def contains(v: Int): Boolean = mark(v) == epoch

  @inline def add(v: Int): Unit = {
    mark(v) = epoch
    if (size == buf.length) buf = java.util.Arrays.copyOf(buf, size * 2)
    buf(size) = v
    size += 1
  }

  @inline def apply(i: Int): Int = buf(i)

  /** Add one to `counts(v)` for every v in the current set. */
  def countInto(counts: Array[Int]): Unit = {
    var i = 0
    while (i < size) { counts(buf(i)) += 1; i += 1 }
  }

  /** The current set, copied out. */
  def result(): Array[Int] = java.util.Arrays.copyOf(buf, size)
}
