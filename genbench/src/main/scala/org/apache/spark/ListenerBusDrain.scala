package org.apache.spark

/** Blocks until every event posted so far has reached every listener.
  * `SparkContext.listenerBus` is package-private, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
