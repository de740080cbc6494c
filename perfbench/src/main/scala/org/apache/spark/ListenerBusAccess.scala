package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so span
  * counts are complete when read. `waitUntilEmpty` is Spark-internal, hence
  * this object lives in Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
